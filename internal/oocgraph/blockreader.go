// Package oocgraph is the out-of-core graph subsystem: a chunked
// EULGRPH1 block parser and a paged CSR (PagedGraph) whose adjacency
// lives on disk behind a bounded LRU of partition pages.  Together
// they let the service ingest, fingerprint, partition, and tour graphs
// far larger than the process heap while producing byte-identical
// circuits to the in-memory path.
package oocgraph

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
)

// DefaultBlockSize is the parse-block size used by the streaming
// scanners: large enough to amortise syscalls, small enough that the
// decoded edge batch (worst case one edge per two input bytes) stays a
// few MiB even under a tight GOMEMLIMIT.
const DefaultBlockSize = 256 << 10

// maxPlausibleCount bounds the declared vertex/edge counts so a
// corrupt header cannot drive allocation sizing; it is far above any
// count the upload caps or the generators admit.
const maxPlausibleCount = int64(1) << 40

// BlockReader parses an EULGRPH1 stream in fixed-size blocks: each
// Next call refills an internal block buffer and returns the edges
// decoded from it, so the caller never holds more than one block's
// worth of decoded edges.  Edges receive IDs in file order, exactly as
// graph.Read assigns them.
//
// Unlike graph.Read, every malformed input — truncated stream,
// oversized varint record, out-of-range endpoint, self loop, trailing
// garbage — is a returned error, never a panic, which makes this the
// parser the service trusts with untrusted upload bodies.
type BlockReader struct {
	r    io.Reader
	n, m int64
	next graph.EdgeID

	buf   []byte // block buffer; buf[:have] holds unparsed bytes
	have  int
	eof   bool
	edges []graph.Edge // reused output batch
}

// NewBlockReader validates the EULGRPH1 header on r and returns a
// reader that parses the body in blockSize-byte blocks.
func NewBlockReader(r io.Reader, blockSize int) (*BlockReader, error) {
	if blockSize < 64 {
		blockSize = 64
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", graph.ErrBadFormat, err)
	}
	want := graph.AppendHeader(nil, 0, 0)[:8]
	if string(hdr[:]) != string(want) {
		return nil, fmt.Errorf("%w: magic %q", graph.ErrBadFormat, hdr[:])
	}
	n, err := readUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: vertex count: %v", graph.ErrBadFormat, err)
	}
	m, err := readUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: edge count: %v", graph.ErrBadFormat, err)
	}
	if n > uint64(maxPlausibleCount) || m > uint64(maxPlausibleCount) {
		return nil, fmt.Errorf("%w: implausible counts (%d vertices, %d edges)", graph.ErrBadFormat, n, m)
	}
	return &BlockReader{
		r:   r,
		n:   int64(n),
		m:   int64(m),
		buf: make([]byte, 0, blockSize),
	}, nil
}

// OpenBlockFile opens path and returns a BlockReader over it plus a
// close function for the underlying file.
func OpenBlockFile(path string, blockSize int) (*BlockReader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br, err := NewBlockReader(f, blockSize)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return br, f.Close, nil
}

// NumVertices returns the declared vertex count.
func (br *BlockReader) NumVertices() int64 { return br.n }

// NumEdges returns the declared edge count.
func (br *BlockReader) NumEdges() int64 { return br.m }

// readUvarint reads a uvarint from r one byte at a time (used only for
// the ~20-byte header, where buffering would over-read into the body).
func readUvarint(r io.Reader) (uint64, error) {
	var x uint64
	var s uint
	var b [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		c := b[0]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("uvarint overflows 64 bits")
}

// Next parses the next block and returns its edges.  The returned
// slice is reused by the following Next call.  It returns io.EOF after
// the declared edge count has been delivered and the stream ends
// cleanly; any structural problem is a graph.ErrBadFormat-wrapped
// error.
func (br *BlockReader) Next() ([]graph.Edge, error) {
	if br.next == br.m {
		// All edges delivered: the stream must end here.
		if br.have > 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after edge %d", graph.ErrBadFormat, br.have, br.m)
		}
		if !br.eof {
			var probe [1]byte
			k, err := br.r.Read(probe[:])
			if k > 0 {
				return nil, fmt.Errorf("%w: trailing data after edge %d", graph.ErrBadFormat, br.m)
			}
			if err != nil && err != io.EOF {
				return nil, err
			}
			br.eof = true
		}
		return nil, io.EOF
	}
	if err := br.fill(); err != nil {
		return nil, err
	}
	br.edges = br.edges[:0]
	pos := 0
	for br.next < br.m {
		u, ulen := binary.Uvarint(br.buf[pos:br.have])
		if ulen == 0 {
			break // incomplete varint: carry to the next block
		}
		if ulen < 0 {
			return nil, fmt.Errorf("%w: edge %d: oversized endpoint record", graph.ErrBadFormat, br.next)
		}
		v, vlen := binary.Uvarint(br.buf[pos+ulen : br.have])
		if vlen == 0 {
			break
		}
		if vlen < 0 {
			return nil, fmt.Errorf("%w: edge %d: oversized endpoint record", graph.ErrBadFormat, br.next)
		}
		if u >= uint64(br.n) || v >= uint64(br.n) {
			return nil, fmt.Errorf("%w: edge %d: endpoint (%d,%d) out of range [0,%d)", graph.ErrBadFormat, br.next, u, v, br.n)
		}
		if u == v {
			return nil, fmt.Errorf("%w: edge %d: self loop at vertex %d", graph.ErrBadFormat, br.next, u)
		}
		br.edges = append(br.edges, graph.Edge{ID: br.next, U: int64(u), V: int64(v)})
		br.next++
		pos += ulen + vlen
	}
	// Shift the unparsed tail to the front for the next fill.
	copy(br.buf[:cap(br.buf)], br.buf[pos:br.have])
	br.have -= pos
	if len(br.edges) == 0 {
		if br.eof {
			return nil, fmt.Errorf("%w: truncated at edge %d of %d", graph.ErrBadFormat, br.next, br.m)
		}
		// A full block with no complete pair means a record larger than
		// the block, which the varint bound already rejects; getting
		// here requires blockSize < one pair, prevented by the minimum.
		return nil, fmt.Errorf("%w: no complete record in block", graph.ErrBadFormat)
	}
	return br.edges, nil
}

// fill tops the block buffer up to capacity from the underlying reader.
func (br *BlockReader) fill() error {
	for br.have < cap(br.buf) && !br.eof {
		k, err := br.r.Read(br.buf[br.have:cap(br.buf)])
		br.have += k
		if err == io.EOF {
			br.eof = true
			break
		}
		if err != nil {
			return err
		}
		if k == 0 {
			return io.ErrNoProgress
		}
	}
	return nil
}
