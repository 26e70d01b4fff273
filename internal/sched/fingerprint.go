package sched

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"os"

	"repro/internal/graph"
)

// Fingerprint is the content address of one circuit computation: a
// SHA-256 over the canonical form of the input graph plus the solve
// options that influence the output bytes.  Two submissions with equal
// fingerprints are guaranteed the same NDJSON circuit stream, so the
// scheduler may coalesce them onto one execution or serve one from the
// result cache.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fingerprintVersion is hashed first so a future canonicalization
// change cannot alias entries produced by an old scheme.  fp2 added the
// workload kind and its kind-specific material to the hash; fp3 replaced
// the sorted edge list with the keyed multiset sum.
const fingerprintVersion = "eulerfp3"

// SolveOptions is the option subset that determines the output stream
// for a given input graph.  Where path bodies live (the source decides)
// and transport topology are deliberately excluded: they move
// intermediate state around without changing the streamed result (the
// cluster-vs-solo byte-identity scenario is exactly that guarantee).
type SolveOptions struct {
	// Parts is the partition count as submitted (0 = engine default;
	// kept verbatim because the resolved default is process-local).
	Parts int32
	// Mode is the remote-edge strategy; "" canonicalises to "current".
	Mode string
	// Seed drives the partitioner as submitted.
	Seed int64
	// Kind is the workload family ("" canonicalises to "euler").  It is
	// always hashed, so the same input graph submitted under two kinds
	// can never share a fingerprint.
	Kind string
	// KindMaterial is the kind's canonical option bytes (normalised
	// kind-specific spec fields); nil and empty hash identically.
	KindMaterial []byte
}

// edgeCipher is the multiset hash's secret key, drawn once per process.
// A fingerprint therefore names a result only inside the process that
// computed it; making the cache durable or shared means persisting or
// distributing this key.  cipher.Block is safe for concurrent use.
var edgeCipher = func() cipher.Block {
	var key [16]byte
	rand.Read(key[:]) // never fails; crypto/rand panics instead
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	return b
}()

// edgeMultiset is an MSet-Add-Hash accumulator (Clarke, Devadas, van
// Dijk, Gassend & Suh, ASIACRYPT 2003) over the input's undirected
// edges: each edge's normalised pair (min, max), both endpoints as full
// 64-bit values, is one AES-128 block under edgeCipher, and the
// ciphertexts are added mod 2^128.  Addition commutes, so edge order,
// edge IDs and endpoint orientation (all artifacts of how the graph was
// submitted) do not affect the sum, while two different multisets
// collide only with negligible probability as long as the key stays in
// the process.  FingerprintGraph and FingerprintUpload feed the same
// accumulator, so their digests agree on the same graph.
type edgeMultiset struct {
	lo, hi uint64
	edges  int64
	block  [aes.BlockSize]byte // scratch; a field so Encrypt's argument is not a per-edge allocation
}

// add folds a batch of edges into the sum.
func (m *edgeMultiset) add(edges []graph.Edge) {
	for _, e := range edges {
		lo, hi := e.U, e.V
		if lo > hi {
			lo, hi = hi, lo
		}
		binary.LittleEndian.PutUint64(m.block[:8], uint64(lo))
		binary.LittleEndian.PutUint64(m.block[8:], uint64(hi))
		edgeCipher.Encrypt(m.block[:], m.block[:])
		var carry uint64
		m.lo, carry = bits.Add64(m.lo, binary.LittleEndian.Uint64(m.block[:8]), 0)
		m.hi += binary.LittleEndian.Uint64(m.block[8:]) + carry
	}
	m.edges += int64(len(edges))
}

// fingerprint hashes version, vertex count, edge count and the sum,
// then the option suffix.  The sum never leaves the process except
// through this digest.
func (m *edgeMultiset) fingerprint(vertices int64, opts SolveOptions) Fingerprint {
	mode := opts.Mode
	if mode == "" {
		mode = "current"
	}
	kind := opts.Kind
	if kind == "" {
		kind = "euler"
	}
	var scratch [128]byte
	buf := append(scratch[:0], fingerprintVersion...)
	buf = binary.AppendUvarint(buf, uint64(vertices))
	buf = binary.AppendUvarint(buf, uint64(m.edges))
	buf = binary.LittleEndian.AppendUint64(buf, m.lo)
	buf = binary.LittleEndian.AppendUint64(buf, m.hi)
	buf = binary.AppendVarint(buf, int64(opts.Parts))
	buf = binary.AppendVarint(buf, opts.Seed)
	// Length-prefix the variable-length trailing fields so no two
	// (mode, kind, material) triples can concatenate to the same bytes.
	for _, field := range [][]byte{[]byte(mode), []byte(kind), opts.KindMaterial} {
		buf = binary.AppendUvarint(buf, uint64(len(field)))
		buf = append(buf, field...)
	}
	return sha256.Sum256(buf)
}

// FingerprintGraph computes the canonical fingerprint of g under opts:
// vertex count, edge count and the multiset of undirected edges, in one
// pass over g's edge list with no per-edge memory.
//
// Consequence of that normalization: the deduplicated circuit stream's
// edge IDs are those of the execution that computed it.  A client that
// uploaded the same edge multiset in a different order must read each
// step's from/to endpoints (always the true traversal) rather than
// mapping the stream's edge numbers back onto its own file's ordering;
// this is the documented contract of the `edge` field under dedup.
//
// Graphless workload kinds (whose input is entirely kind material, e.g.
// a de Bruijn spec) pass g == nil, which hashes as the empty graph.
func FingerprintGraph(g *graph.Graph, opts SolveOptions) Fingerprint {
	var m edgeMultiset
	var vertices int64
	if g != nil {
		vertices = g.NumVertices()
		m.add(g.Edges())
	}
	return m.fingerprint(vertices, opts)
}

// FingerprintUpload computes the same fingerprint as FingerprintGraph
// over a saved EULGRPH1 upload without ever building the graph in
// memory: one scan of the file folds each edge into the multiset sum.
// Peak memory is one scan block regardless of graph size.
func FingerprintUpload(path string, opts SolveOptions) (Fingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return Fingerprint{}, err
	}
	defer f.Close()
	sc, err := graph.NewScanner(f, graph.DefaultBlockSize)
	if err != nil {
		return Fingerprint{}, err
	}
	var m edgeMultiset
	err = sc.ForEachEdge(func(e graph.Edge) error {
		m.add([]graph.Edge{e})
		return nil
	})
	if err != nil {
		return Fingerprint{}, err
	}
	return m.fingerprint(sc.NumVertices(), opts), nil
}
