package jobkind

import (
	"context"
	"fmt"

	"repro/internal/euler"
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

func (postmanKind) Solve(ctx context.Context, req Request, g *graph.Graph, run GraphRunner, emit func(graph.Step) error) (*euler.RunReport, error) {
	if run == nil {
		run = solveLocal(req.Options)
	}
	// The tour's circuit runs over the Eulerised multigraph, not g, so
	// it must go through the runner (a cluster coordinator fans it
	// out); postman's Circuit seam is exactly that hook, and with it set
	// the engine options reach the run through the runner alone.
	var report *euler.RunReport
	cfg := postman.Config{
		Circuit: func(mg *graph.Graph, _ postman.Config) ([]graph.Step, error) {
			var steps []graph.Step
			r, err := run(ctx, mg, func(st graph.Step) error {
				steps = append(steps, st)
				return nil
			})
			if err != nil {
				return nil, err
			}
			report = r
			return steps, nil
		},
	}
	tour, err := postman.CoveringTour(g, cfg)
	if err != nil {
		return nil, err
	}
	for _, ts := range tour.Steps {
		st := ts.Step
		if ts.Revisit {
			st.Edge = -st.Edge - 1
		}
		if err := emit(st); err != nil {
			return nil, err
		}
	}
	return report, nil
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
