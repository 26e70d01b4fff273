package jobkind

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/postman"
)

// postmanKind serves covering tours (the Chinese postman problem) over
// connected, generally non-Eulerian graphs: odd intersections are
// paired along short paths whose edges are revisited, and the
// Eulerised multigraph's circuit becomes a closed tour covering every
// edge at least once.
//
// Sink encoding: a revisit of edge e is stored as Edge = -e-1 (the
// step codec round-trips negative values), so the one framed stream
// format carries the repetition flag and the cache can replay tours
// byte-identically without kind knowledge.
type postmanKind struct{}

func (postmanKind) Name() string     { return "postman" }
func (postmanKind) NeedsGraph() bool { return true }

func (postmanKind) Normalize(req *Request) error {
	return normalizeEngineOptions("postman", req)
}

// Material is nil: like euler, the graph and engine options determine
// the tour (the kind tag itself keeps the two from ever sharing a
// fingerprint).
func (postmanKind) Material(Request) []byte { return nil }

// Solve runs the circuit of the Eulerised multigraph, not g, through run,
// which carries the engine options (a cluster coordinator fans it out).
func (postmanKind) Solve(ctx context.Context, req Request, g *graph.Graph, run GraphRunner, emit func(graph.Step) error) error {
	if run == nil {
		run = solveLocal(ctx, req.Options)
	}
	tour, err := postman.CoveringTour(g, run)
	if err != nil {
		return err
	}
	for _, ts := range tour.Steps {
		st := ts.Step
		if ts.Revisit {
			st.Edge = -st.Edge - 1
		}
		if err := emit(st); err != nil {
			return err
		}
	}
	return nil
}

func (postmanKind) Verify(req Request, g *graph.Graph, steps []graph.Step) error {
	tour, err := decodeTour(steps)
	if err != nil {
		return err
	}
	return postman.VerifyTour(g, tour)
}

// decodeTour unpacks the sink encoding back into a postman.Tour.
func decodeTour(steps []graph.Step) (*postman.Tour, error) {
	tour := &postman.Tour{Steps: make([]postman.TourStep, 0, len(steps))}
	for _, st := range steps {
		ts := postman.TourStep{Step: st}
		if st.Edge < 0 {
			ts.Edge = -st.Edge - 1
			ts.Revisit = true
			tour.Revisits++
		}
		tour.Steps = append(tour.Steps, ts)
	}
	return tour, nil
}

func (postmanKind) AppendLine(dst []byte, st graph.Step) []byte {
	if st.Edge < 0 {
		plain := st
		plain.Edge = -st.Edge - 1
		return appendCircuitLine(dst, plain, true)
	}
	return appendCircuitLine(dst, st, false)
}

func (postmanKind) ParseLine(line []byte) (graph.Step, error) {
	st, revisit, err := parseCircuitLine(line)
	if err != nil {
		return st, err
	}
	if revisit {
		if st.Edge < 0 {
			return st, fmt.Errorf("tour line revisits negative edge %d", st.Edge)
		}
		st.Edge = -st.Edge - 1
	}
	return st, nil
}
