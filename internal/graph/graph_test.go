package graph

import (
	"testing"
)

// triangle returns K3 on vertices 0,1,2.
func triangle() *Graph {
	return FromEdges(3, [][2]VertexID{{0, 1}, {1, 2}, {2, 0}})
}

func TestBuilderBasic(t *testing.T) {
	g := triangle()
	if got := g.NumVertices(); got != 3 {
		t.Fatalf("NumVertices = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3", got)
	}
	if got := g.NumDirectedEdges(); got != 6 {
		t.Fatalf("NumDirectedEdges = %d, want 6", got)
	}
	for v := int64(0); v < 3; v++ {
		if d := g.Degree(v); d != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, d)
		}
	}
}

func TestAdjacencyMatchesEdges(t *testing.T) {
	g := FromEdges(5, [][2]VertexID{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {0, 3}})
	for v := int64(0); v < g.NumVertices(); v++ {
		for _, h := range g.Adj(v) {
			e := g.Edge(h.Edge)
			if e.Other(v) != h.To {
				t.Errorf("Adj(%d): half %+v disagrees with edge %+v", v, h, e)
			}
		}
	}
}

func TestParallelEdges(t *testing.T) {
	g := FromEdges(2, [][2]VertexID{{0, 1}, {0, 1}, {1, 0}})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if d := g.Degree(0); d != 3 {
		t.Fatalf("Degree(0) = %d, want 3", d)
	}
	// All three halves out of 0 must reach 1 via distinct edge IDs.
	seen := map[EdgeID]bool{}
	for _, h := range g.Adj(0) {
		if h.To != 1 {
			t.Errorf("half to %d, want 1", h.To)
		}
		if seen[h.Edge] {
			t.Errorf("edge %d appears twice in Adj(0)", h.Edge)
		}
		seen[h.Edge] = true
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{ID: 7, U: 3, V: 9}
	if e.Other(3) != 9 || e.Other(9) != 3 {
		t.Fatalf("Other mismatched: %d %d", e.Other(3), e.Other(9))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge self loop did not panic")
		}
	}()
	NewBuilder(3, 0).AddEdge(1, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(3, 0).AddEdge(0, 3)
}

func TestIsEulerianAndOddVertices(t *testing.T) {
	if !triangle().IsEulerian() {
		t.Error("triangle should be Eulerian")
	}
	path := FromEdges(3, [][2]VertexID{{0, 1}, {1, 2}})
	if path.IsEulerian() {
		t.Error("path should not be Eulerian")
	}
	odd := path.OddVertices()
	if len(odd) != 2 || odd[0] != 0 || odd[1] != 2 {
		t.Errorf("OddVertices = %v, want [0 2]", odd)
	}
}

func TestDegreeHistogram(t *testing.T) {
	star := FromEdges(4, [][2]VertexID{{0, 1}, {0, 2}, {0, 3}})
	h := star.DegreeHistogram()
	if h[3] != 1 || h[1] != 3 {
		t.Errorf("histogram = %v, want {3:1, 1:3}", h)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(5, 0).Build()
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	for v := int64(0); v < 5; v++ {
		if len(g.Adj(v)) != 0 {
			t.Errorf("Adj(%d) non-empty on edgeless graph", v)
		}
	}
	if !g.IsEulerian() {
		t.Error("edgeless graph is trivially Eulerian")
	}
}
