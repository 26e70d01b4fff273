package jobkind

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/seq"
)

// DeBruijnSpec parameterises a "debruijn" job: the de Bruijn sequence
// B(alphabet, length).  Zero values take the documented defaults.
type DeBruijnSpec struct {
	// Alphabet is the symbol count k (default 2, max 10).
	Alphabet int64 `json:"alphabet,omitempty"`
	// Length is the window length n (default 8); B(k, n) has k^n
	// symbols, capped at seq.MaxDeBruijnLength.
	Length int64 `json:"length,omitempty"`
}

// debruijnKind serves de Bruijn sequences: the classic constructive
// application of directed Euler circuits, solved in-process over the
// directed de Bruijn graph (no input graph, no engine options).  Each
// result line is one {"sym":s} symbol; the sink stores one symbol per
// step in Step.Edge.
type debruijnKind struct{}

func (debruijnKind) Name() string     { return "debruijn" }
func (debruijnKind) NeedsGraph() bool { return false }

func (debruijnKind) Normalize(req *Request) error {
	if req.Superwalk != nil {
		return badSpec("debruijn", "debruijn jobs take no superwalk spec")
	}
	if err := requireNoEngineOptions("debruijn", req.Options); err != nil {
		return err
	}
	if req.DeBruijn == nil {
		req.DeBruijn = &DeBruijnSpec{}
	}
	d := req.DeBruijn
	if d.Alphabet == 0 {
		d.Alphabet = 2
	}
	if d.Length == 0 {
		d.Length = 8
	}
	if _, err := seq.DeBruijnSize(d.Alphabet, d.Length); err != nil {
		return badSpec("debruijn", "%v", err)
	}
	return nil
}

func (debruijnKind) Material(req Request) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64)
	buf = binary.AppendVarint(buf, req.DeBruijn.Alphabet)
	buf = binary.AppendVarint(buf, req.DeBruijn.Length)
	return buf
}

func (debruijnKind) Solve(ctx context.Context, req Request, _ *graph.Graph, _ GraphRunner, emit func(graph.Step) error) error {
	symbols, err := seq.DeBruijn(req.DeBruijn.Alphabet, req.DeBruijn.Length)
	if err != nil {
		return err
	}
	for _, s := range symbols {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := emit(graph.Step{Edge: int64(s)}); err != nil {
			return err
		}
	}
	return nil
}

func (debruijnKind) Verify(req Request, _ *graph.Graph, steps []graph.Step) error {
	symbols := make([]byte, len(steps))
	for i, st := range steps {
		if st.Edge < 0 || st.Edge > 255 {
			return fmt.Errorf("debruijn step %d carries symbol %d outside byte range", i, st.Edge)
		}
		symbols[i] = byte(st.Edge)
	}
	return seq.VerifyDeBruijn(symbols, req.DeBruijn.Alphabet, req.DeBruijn.Length)
}

func (debruijnKind) AppendLine(dst []byte, st graph.Step) []byte {
	dst = append(dst, `{"sym":`...)
	dst = strconv.AppendInt(dst, st.Edge, 10)
	return append(dst, "}\n"...)
}

func (debruijnKind) ParseLine(line []byte) (graph.Step, error) {
	var row struct {
		Sym int64 `json:"sym"`
	}
	if err := json.Unmarshal(line, &row); err != nil {
		return graph.Step{}, fmt.Errorf("parsing sequence line: %w", err)
	}
	return graph.Step{Edge: row.Sym}, nil
}
