package gen

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestRMATShape(t *testing.T) {
	p := DefaultRMAT(10, 1)
	g := RMAT(p)
	if g.NumVertices() != 1024 {
		t.Fatalf("NumVertices = %d, want 1024", g.NumVertices())
	}
	wantEdges := int64(1024 * 5 / 2)
	if g.NumEdges() != wantEdges {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), wantEdges)
	}
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop survived: %+v", e)
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	p := DefaultRMAT(9, 7)
	p.Workers = 1
	a := RMAT(p)
	p.Workers = 4
	b := RMAT(p)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatalf("edge %d differs across worker counts: %+v vs %+v",
				i, a.Edges()[i], b.Edges()[i])
		}
	}
}

func TestRMATSeedsDiffer(t *testing.T) {
	a := RMAT(DefaultRMAT(9, 1))
	b := RMAT(DefaultRMAT(9, 2))
	same := true
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical edge streams")
	}
}

func TestRMATPowerLawSkew(t *testing.T) {
	// The RMAT quadrant skew must concentrate edges on low-ID vertices: the
	// max degree should far exceed the average degree.
	g := RMAT(DefaultRMAT(12, 3))
	avg := float64(2*g.NumEdges()) / float64(g.NumVertices())
	var top int64
	for v := range g.NumVertices() {
		top = max(top, g.Degree(v))
	}
	if float64(top) < 8*avg {
		t.Errorf("max degree %d not skewed vs average %.1f", top, avg)
	}
}

func TestEulerizeMakesEven(t *testing.T) {
	g := RMAT(DefaultRMAT(10, 5))
	eg, stats := Eulerize(g)
	if !eg.IsEulerian() {
		t.Fatal("Eulerize output has odd-degree vertices")
	}
	if stats.AddedEdges != stats.OddVertices/2 {
		t.Errorf("AddedEdges = %d, want %d", stats.AddedEdges, stats.OddVertices/2)
	}
	if eg.NumEdges() != g.NumEdges()+stats.AddedEdges {
		t.Errorf("edge count %d, want %d", eg.NumEdges(), g.NumEdges()+stats.AddedEdges)
	}
}

func TestEulerizePreservesEvenGraph(t *testing.T) {
	g := Torus(5, 5)
	eg, stats := Eulerize(g)
	if stats.AddedEdges != 0 {
		t.Fatalf("added %d edges to an already Eulerian graph", stats.AddedEdges)
	}
	if eg.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
}

func TestEulerizeDegreeShift(t *testing.T) {
	// A path 0-1-2 has odd vertices 0 and 2; eulerizing must join them.
	g := graph.FromEdges(3, [][2]graph.VertexID{{0, 1}, {1, 2}})
	eg, stats := Eulerize(g)
	if stats.AddedEdges != 1 {
		t.Fatalf("AddedEdges = %d, want 1", stats.AddedEdges)
	}
	if eg.Degree(0) != 2 || eg.Degree(2) != 2 || eg.Degree(1) != 2 {
		t.Fatalf("degrees = %d,%d,%d, want all 2", eg.Degree(0), eg.Degree(1), eg.Degree(2))
	}
}

func TestEulerianRMATConnectedAndEven(t *testing.T) {
	g, stats := EulerianRMAT(DefaultRMAT(11, 9))
	if !g.IsEulerian() {
		t.Fatal("not Eulerian")
	}
	if !graph.IsConnected(g) {
		t.Fatal("not connected")
	}
	if stats.ExtraPercent > 25 {
		t.Errorf("extra edges %.1f%% is implausibly high", stats.ExtraPercent)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 3)
	if g.NumVertices() != 12 || g.NumEdges() != 24 {
		t.Fatalf("shape %d/%d, want 12/24", g.NumVertices(), g.NumEdges())
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if !graph.IsConnected(g) {
		t.Fatal("torus not connected")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(5)
	if !g.IsEulerian() || !graph.IsConnected(g) {
		t.Fatal("cycle should be connected Eulerian")
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
}

func TestCompleteOdd(t *testing.T) {
	g := CompleteOdd(7)
	if g.NumEdges() != 21 {
		t.Fatalf("NumEdges = %d, want 21", g.NumEdges())
	}
	if !g.IsEulerian() {
		t.Fatal("K7 should be Eulerian")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CompleteOdd(4) should panic")
		}
	}()
	CompleteOdd(4)
}

func TestRingOfCliques(t *testing.T) {
	g := RingOfCliques(4, 5)
	if g.NumVertices() != 16 {
		t.Fatalf("NumVertices = %d, want 16", g.NumVertices())
	}
	if !g.IsEulerian() {
		t.Fatal("ring of K5 should be Eulerian")
	}
	if !graph.IsConnected(g) {
		t.Fatal("ring of cliques should be connected")
	}
}

func TestRandomEulerian(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomEulerian(30, 5, 8, rng)
		if !g.IsEulerian() {
			t.Fatalf("seed %d: not Eulerian", seed)
		}
		if !graph.IsConnected(g) {
			t.Fatalf("seed %d: not connected", seed)
		}
	}
}

func TestPaperFigure1(t *testing.T) {
	g, part := PaperFigure1()
	if g.NumVertices() != 14 || g.NumEdges() != 16 {
		t.Fatalf("shape %d/%d, want 14/16", g.NumVertices(), g.NumEdges())
	}
	if !g.IsEulerian() {
		t.Fatal("Fig. 1 graph should be Eulerian")
	}
	if !graph.IsConnected(g) {
		t.Fatal("Fig. 1 graph should be connected")
	}
	if len(part) != 14 {
		t.Fatalf("partition length %d, want 14", len(part))
	}
	counts := map[int32]int{}
	for _, p := range part {
		counts[p]++
	}
	if counts[0] != 2 || counts[1] != 3 || counts[2] != 4 || counts[3] != 5 {
		t.Errorf("partition sizes %v, want P1=2 P2=3 P3=4 P4=5", counts)
	}
}

func TestRMATExactVertices(t *testing.T) {
	p := RMATParams{Vertices: 3000, AvgDegree: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 5}
	g := RMAT(p)
	if g.NumVertices() != 3000 {
		t.Fatalf("NumVertices = %d, want 3000", g.NumVertices())
	}
	if g.NumEdges() != 6000 {
		t.Fatalf("NumEdges = %d, want 6000", g.NumEdges())
	}
	for _, e := range g.Edges() {
		if e.U >= 3000 || e.V >= 3000 {
			t.Fatalf("edge out of range: %+v", e)
		}
	}
}
