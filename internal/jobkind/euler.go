package jobkind

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/verify"
)

// eulerKind is the default workload family: an Euler circuit of an
// Eulerian input graph, the paper's core computation.
type eulerKind struct{}

func (eulerKind) Name() string     { return "euler" }
func (eulerKind) NeedsGraph() bool { return true }

// SupportsDelta opts euler into edge-diff submissions: its local solve
// path retains replay state, so clean partitions of a patched base are
// replayed instead of re-toured.
func (eulerKind) SupportsDelta() bool { return true }

func (eulerKind) Normalize(req *Request) error {
	return normalizeEngineOptions("euler", req)
}

// Material is nil: the input graph and engine options, both hashed by
// sched.FingerprintGraph, fully determine an euler result.
func (eulerKind) Material(Request) []byte { return nil }

func (eulerKind) Solve(ctx context.Context, req Request, g *graph.Graph, run GraphRunner, emit func(graph.Step) error) error {
	if run == nil {
		run = solveLocal(ctx, req.Options)
	}
	return run(g, emit)
}

func (eulerKind) Verify(req Request, g *graph.Graph, steps []graph.Step) error {
	return verify.Circuit(g, steps)
}

func (eulerKind) AppendLine(dst []byte, st graph.Step) []byte {
	return appendCircuitLine(dst, st, false)
}

func (eulerKind) ParseLine(line []byte) (graph.Step, error) {
	st, revisit, err := parseCircuitLine(line)
	if err != nil {
		return st, err
	}
	if revisit {
		return st, fmt.Errorf("euler circuit step carries a revisit flag")
	}
	return st, nil
}

// appendCircuitLine renders one circuit/tour step; the euler form is
// byte-identical to the service's historical NDJSON framing.
func appendCircuitLine(dst []byte, st graph.Step, revisit bool) []byte {
	dst = append(dst, `{"edge":`...)
	dst = strconv.AppendInt(dst, st.Edge, 10)
	dst = append(dst, `,"from":`...)
	dst = strconv.AppendInt(dst, st.From, 10)
	dst = append(dst, `,"to":`...)
	dst = strconv.AppendInt(dst, st.To, 10)
	if revisit {
		dst = append(dst, `,"revisit":true`...)
	}
	return append(dst, "}\n"...)
}

func parseCircuitLine(line []byte) (graph.Step, bool, error) {
	var row struct {
		Edge    int64 `json:"edge"`
		From    int64 `json:"from"`
		To      int64 `json:"to"`
		Revisit bool  `json:"revisit"`
	}
	if err := json.Unmarshal(line, &row); err != nil {
		return graph.Step{}, false, fmt.Errorf("parsing circuit line: %w", err)
	}
	return graph.Step{Edge: row.Edge, From: row.From, To: row.To}, row.Revisit, nil
}
