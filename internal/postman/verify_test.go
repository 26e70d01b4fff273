package postman

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// tourOf builds a small covering tour to corrupt in the rejection tests.
func tourOf(t *testing.T, g *graph.Graph) *Tour {
	t.Helper()
	tour, err := CoveringTour(g, solver(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
	return tour
}

func cloneTour(t *Tour) *Tour {
	return &Tour{Steps: append([]TourStep(nil), t.Steps...), Revisits: t.Revisits}
}

func TestVerifyTourRejections(t *testing.T) {
	g := gen.Torus(4, 4) // Eulerian: tour == circuit, Revisits 0
	base := tourOf(t, g)

	for name, tc := range map[string]struct {
		mutate func(*Tour)
		want   string
	}{
		"unknown edge":  {func(tr *Tour) { tr.Steps[3].Edge = g.NumEdges() + 5 }, "unknown edge"},
		"negative edge": {func(tr *Tour) { tr.Steps[3].Edge = -1 }, "unknown edge"},
		"orientation": {func(tr *Tour) {
			// Point the step at vertices that are not the edge's endpoints.
			tr.Steps[2].From, tr.Steps[2].To = tr.Steps[2].To+1, tr.Steps[2].From+1
		}, "orientation"},
		"broken walk": {func(tr *Tour) {
			a := tr.Steps[4]
			tr.Steps[4] = tr.Steps[8]
			tr.Steps[8] = a
		}, ""}, // swap breaks continuity or orientation; either message is fine
		"length mismatch": {func(tr *Tour) { tr.Revisits++ }, "steps"},
	} {
		t.Run(name, func(t *testing.T) {
			tr := cloneTour(base)
			tc.mutate(tr)
			err := VerifyTour(g, tr)
			if err == nil {
				t.Fatal("corrupted tour accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	if err := VerifyTour(graph.FromEdges(2, nil), &Tour{Steps: base.Steps[:1]}); err == nil {
		t.Fatal("non-empty tour of edgeless graph accepted")
	}
}

func TestVerifyTourCatchesOpenWalk(t *testing.T) {
	// Triangle 0-1-2 plus pendant 2-3: a perfect Euler path 2→0→1→2→3
	// passes every check except closure.
	g := graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	open := &Tour{Steps: []TourStep{
		{Step: graph.Step{Edge: 2, From: 2, To: 0}},
		{Step: graph.Step{Edge: 0, From: 0, To: 1}},
		{Step: graph.Step{Edge: 1, From: 1, To: 2}},
		{Step: graph.Step{Edge: 3, From: 2, To: 3}},
	}}
	err := VerifyTour(g, open)
	if err == nil || !strings.Contains(err.Error(), "not closed") {
		t.Fatalf("open walk: got %v", err)
	}
}

func TestVerifyTourCatchesUncoveredEdges(t *testing.T) {
	// Square cycle 0-1-2-3-0; a back-and-forth over edge 0 is a closed
	// walk of the right length (with no declared revisits) that leaves
	// three edges uncovered.
	g := gen.Cycle(4)
	bad := &Tour{Steps: []TourStep{
		{Step: graph.Step{Edge: 0, From: 0, To: 1}},
		{Step: graph.Step{Edge: 0, From: 1, To: 0}},
		{Step: graph.Step{Edge: 0, From: 0, To: 1}},
		{Step: graph.Step{Edge: 0, From: 1, To: 0}},
	}}
	err := VerifyTour(g, bad)
	if err == nil || !strings.Contains(err.Error(), "never covered") {
		t.Fatalf("uncovered edges: got %v", err)
	}
}

// TestCircuitSeam checks the circuit runner seam: CoveringTour hands the
// Eulerised multigraph to the caller's runner exactly once, and the
// steps it streams become a valid tour.
func TestCircuitSeam(t *testing.T) {
	g := gen.StreetGrid(6, 5, 0, 2)
	var calls int
	inner := solver(3, 0)
	tour, err := CoveringTour(g, func(mg *graph.Graph, emit func(graph.Step) error) error {
		calls++
		if mg.NumVertices() != g.NumVertices() || mg.NumEdges() <= g.NumEdges() || !mg.IsEulerian() {
			t.Errorf("seam received %d vertices / %d edges (Eulerian %v), want the Eulerised multigraph of %d / %d",
				mg.NumVertices(), mg.NumEdges(), mg.IsEulerian(), g.NumVertices(), g.NumEdges())
		}
		return inner(mg, emit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("seam called %d times, want 1", calls)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
	if tour.Revisits == 0 {
		t.Fatal("street grid tour needs deadheading")
	}
}
