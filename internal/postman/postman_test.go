package postman

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
)

// solver is the in-process circuit runner: euler.Solve with the given
// part count and seed (≤ 0 parts and 0 seed = the engine defaults).
func solver(parts int32, seed int64) func(*graph.Graph, func(graph.Step) error) error {
	return func(g *graph.Graph, emit func(graph.Step) error) error {
		_, _, err := euler.Solve(context.Background(), g, euler.SolveSpec{Parts: max(parts, 0), Seed: seed}, emit)
		return err
	}
}

func TestEulerPathSimple(t *testing.T) {
	// 0-1-2 path plus a triangle 1-3-4-1: odd vertices 0 and 2.
	g := graph.FromEdges(5, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {1, 3}, {3, 4}, {4, 1},
	})
	steps, err := EulerPath(g, solver(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	odd := g.OddVertices()
	// The path may run in either direction between the odd endpoints.
	src, dst := steps[0].From, steps[len(steps)-1].To
	if !(src == odd[0] && dst == odd[1]) && !(src == odd[1] && dst == odd[0]) {
		t.Fatalf("endpoints (%d,%d), want {%d,%d}", src, dst, odd[0], odd[1])
	}
	if err := verify.Path(g, steps, src, dst); err != nil {
		t.Fatal(err)
	}
}

func TestEulerPathRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g0 := gen.RandomEulerian(40, 4, 8, rng)
		// Remove one edge to create exactly two odd vertices.
		b := graph.NewBuilder(g0.NumVertices(), int(g0.NumEdges())-1)
		for _, e := range g0.Edges()[1:] {
			b.AddEdge(e.U, e.V)
		}
		g := b.Build()
		if len(g.OddVertices()) != 2 {
			t.Fatalf("seed %d: setup produced %d odd vertices", seed, len(g.OddVertices()))
		}
		steps, err := EulerPath(g, solver(3, seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.Path(g, steps, steps[0].From, steps[len(steps)-1].To); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEulerPathRejectsWrongParity(t *testing.T) {
	if _, err := EulerPath(gen.Cycle(5), solver(0, 0)); err == nil {
		t.Fatal("0 odd vertices should be rejected (use the circuit API)")
	}
	star := graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}})
	if _, err := EulerPath(star, solver(0, 0)); err == nil {
		t.Fatal("4 odd vertices should be rejected")
	}
}

func TestCoveringTourAlreadyEulerian(t *testing.T) {
	g := gen.Torus(6, 6)
	tour, err := CoveringTour(g, solver(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tour.Revisits != 0 {
		t.Fatalf("revisits = %d on an Eulerian graph", tour.Revisits)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
}

func TestCoveringTourGrid(t *testing.T) {
	// A 5x4 open grid has odd-degree border vertices; the tour must cover
	// every street with bounded deadheading.
	const w, h = 5, 4
	b := graph.NewBuilder(w*h, 2*w*h)
	id := func(x, y int64) graph.VertexID { return y*w + x }
	for y := int64(0); y < h; y++ {
		for x := int64(0); x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	g := b.Build()
	tour, err := CoveringTour(g, solver(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
	if tour.Revisits == 0 {
		t.Fatal("grid requires deadheading")
	}
	// Greedy pairing should stay well below doubling every edge.
	if tour.Revisits >= g.NumEdges() {
		t.Fatalf("revisits %d >= edges %d: degenerate pairing", tour.Revisits, g.NumEdges())
	}
	// Count revisit flags match the declared total.
	var flagged int64
	for _, s := range tour.Steps {
		if s.Revisit {
			flagged++
		}
	}
	if flagged != tour.Revisits {
		t.Fatalf("flagged %d revisit steps, declared %d", flagged, tour.Revisits)
	}
}

func TestCoveringTourDisconnected(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3},
	})
	if _, err := CoveringTour(g, solver(0, 0)); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestCoveringTourEmpty(t *testing.T) {
	g := graph.FromEdges(3, nil)
	tour, err := CoveringTour(g, solver(0, 0))
	if err != nil || len(tour.Steps) != 0 {
		t.Fatalf("tour=%v err=%v", tour, err)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyTourCatchesGaps(t *testing.T) {
	g := gen.Cycle(4)
	tour, err := CoveringTour(g, solver(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Drop a step: must fail both the length and coverage checks.
	broken := &Tour{Steps: tour.Steps[:len(tour.Steps)-1], Revisits: tour.Revisits}
	if err := VerifyTour(g, broken); err == nil {
		t.Fatal("short tour accepted")
	}
}

// TestQuickCoveringTour fuzzes route inspection over random connected
// graphs of arbitrary parity.
func TestQuickCoveringTour(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(nRaw%50) + 4
		// Random connected base: a path over a permutation plus chords.
		perm := rng.Perm(int(n))
		b := graph.NewBuilder(n, int(n)+int(extraRaw%40))
		for i := 0; i+1 < len(perm); i++ {
			b.AddEdge(int64(perm[i]), int64(perm[i+1]))
		}
		for i := 0; i < int(extraRaw%40); i++ {
			u, v := rng.Int63n(n), rng.Int63n(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Build()
		tour, err := CoveringTour(g, solver(int32(seed%4+1), seed))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := VerifyTour(g, tour); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
