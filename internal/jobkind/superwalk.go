package jobkind

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/seq"
)

// SuperwalkSpec parameterises a "superwalk" (DNA assembly) job: either
// an explicit error-free read set, or (genome_len, k, seed) naming a
// deterministic synthetic genome the server shreds itself.  The two
// forms are mutually exclusive.
type SuperwalkSpec struct {
	// Reads is the explicit read set: equal-length ACGT strings.  They
	// are canonically sorted at validation, so two submissions of the
	// same read multiset share a fingerprint.
	Reads []string `json:"reads,omitempty"`
	// GenomeLen is the synthetic genome's base count (default 2000).
	GenomeLen int64 `json:"genome_len,omitempty"`
	// K is the read length for the synthetic shred (default 15).
	K int64 `json:"k,omitempty"`
	// Seed drives the synthetic genome (default 1); equal (genome_len,
	// k, seed) triples assemble byte-identical results everywhere.
	Seed int64 `json:"seed,omitempty"`
}

// superwalkKind serves assembly superwalks: the reads become directed
// de Bruijn edges and the Euler path over them spells a superstring
// with the exact k-mer spectrum of the read set (Pevzner-style
// assembly).  Each result line is one {"base":"A"} byte; the sink
// stores one base per step in Step.Edge.
type superwalkKind struct{}

func (superwalkKind) Name() string     { return "superwalk" }
func (superwalkKind) NeedsGraph() bool { return false }

func (superwalkKind) Normalize(req *Request) error {
	if req.DeBruijn != nil {
		return badSpec("superwalk", "superwalk jobs take no debruijn spec")
	}
	if err := requireNoEngineOptions("superwalk", req.Options); err != nil {
		return err
	}
	if req.Superwalk == nil {
		req.Superwalk = &SuperwalkSpec{}
	}
	s := req.Superwalk
	if len(s.Reads) > 0 {
		if s.GenomeLen != 0 || s.K != 0 || s.Seed != 0 {
			return badSpec("superwalk", "explicit reads and synthetic genome parameters (genome_len, k, seed) are mutually exclusive")
		}
		if int64(len(s.Reads)) > seq.MaxReads {
			return badSpec("superwalk", "%d reads exceed the cap of %d", len(s.Reads), seq.MaxReads)
		}
		k := int64(len(s.Reads[0]))
		if k < seq.MinReadLength || k > seq.MaxReadLength {
			return badSpec("superwalk", "read length %d out of range [%d, %d]", k, seq.MinReadLength, seq.MaxReadLength)
		}
		for i, r := range s.Reads {
			if int64(len(r)) != k {
				return badSpec("superwalk", "read %d has %d bases, read 0 has %d; reads must share one length", i, len(r), k)
			}
			for j := 0; j < len(r); j++ {
				switch r[j] {
				case 'A', 'C', 'G', 'T':
				default:
					return badSpec("superwalk", "read %d has non-ACGT base %q", i, r[j])
				}
			}
		}
		// Canonical order: the read multiset, not its submission order,
		// is the job's identity (and keeps the assembly deterministic).
		sort.Strings(s.Reads)
		return nil
	}
	if s.GenomeLen == 0 {
		s.GenomeLen = 2000
	}
	if s.K == 0 {
		s.K = 15
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.K < seq.MinReadLength || s.K > seq.MaxReadLength {
		return badSpec("superwalk", "read length k %d out of range [%d, %d]", s.K, seq.MinReadLength, seq.MaxReadLength)
	}
	if s.GenomeLen <= s.K || s.GenomeLen > seq.MaxGenomeLen {
		return badSpec("superwalk", "genome_len %d out of range (%d, %d]", s.GenomeLen, s.K, seq.MaxGenomeLen)
	}
	return nil
}

func (superwalkKind) Material(req Request) []byte {
	s := req.Superwalk
	buf := make([]byte, 0, 4*binary.MaxVarintLen64)
	buf = binary.AppendVarint(buf, int64(len(s.Reads)))
	for _, r := range s.Reads {
		buf = binary.AppendUvarint(buf, uint64(len(r)))
		buf = append(buf, r...)
	}
	buf = binary.AppendVarint(buf, s.GenomeLen)
	buf = binary.AppendVarint(buf, s.K)
	buf = binary.AppendVarint(buf, s.Seed)
	return buf
}

// materializeReads returns the job's read set: the explicit reads, or
// the shred of the synthetic genome both solver and verifier derive
// from (genome_len, k, seed) alone.
func materializeReads(s *SuperwalkSpec) ([]string, error) {
	if len(s.Reads) > 0 {
		return s.Reads, nil
	}
	return seq.Shred(seq.SyntheticGenome(s.GenomeLen, s.Seed), s.K)
}

func (superwalkKind) Solve(ctx context.Context, req Request, _ *graph.Graph, _ GraphRunner, emit func(graph.Step) error) error {
	reads, err := materializeReads(req.Superwalk)
	if err != nil {
		return err
	}
	assembled, err := seq.Assemble(reads)
	if err != nil {
		return err
	}
	for i := 0; i < len(assembled); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := emit(graph.Step{Edge: int64(assembled[i])}); err != nil {
			return err
		}
	}
	return nil
}

func (superwalkKind) Verify(req Request, _ *graph.Graph, steps []graph.Step) error {
	assembled := make([]byte, len(steps))
	for i, st := range steps {
		switch st.Edge {
		case 'A', 'C', 'G', 'T':
			assembled[i] = byte(st.Edge)
		default:
			return fmt.Errorf("superwalk step %d carries non-ACGT base %d", i, st.Edge)
		}
	}
	reads, err := materializeReads(req.Superwalk)
	if err != nil {
		return err
	}
	return seq.VerifySpectrum(string(assembled), reads)
}

func (superwalkKind) AppendLine(dst []byte, st graph.Step) []byte {
	dst = append(dst, `{"base":"`...)
	dst = append(dst, byte(st.Edge))
	return append(dst, "\"}\n"...)
}

func (superwalkKind) ParseLine(line []byte) (graph.Step, error) {
	var row struct {
		Base string `json:"base"`
	}
	if err := json.Unmarshal(line, &row); err != nil {
		return graph.Step{}, fmt.Errorf("parsing sequence line: %w", err)
	}
	if len(row.Base) != 1 {
		return graph.Step{}, fmt.Errorf("sequence line base %q is not one byte", row.Base)
	}
	return graph.Step{Edge: int64(row.Base[0])}, nil
}
