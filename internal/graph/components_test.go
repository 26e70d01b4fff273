package graph

import (
	"math/rand"
	"testing"
)

func TestComponentsTwoTriangles(t *testing.T) {
	g := FromEdges(6, [][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	labels, count := Components(g)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("first triangle split: %v", labels[:3])
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("second triangle split: %v", labels[3:])
	}
	if labels[0] == labels[3] {
		t.Error("triangles merged")
	}
}

func TestComponentsIsolated(t *testing.T) {
	g := FromEdges(4, [][2]VertexID{{0, 1}})
	_, count := Components(g)
	if count != 3 { // {0,1}, {2}, {3}
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestIsConnected(t *testing.T) {
	conn := FromEdges(4, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}})
	if !IsConnected(conn) {
		t.Error("path graph should be connected")
	}
	// Isolated vertices are ignored.
	iso := FromEdges(5, [][2]VertexID{{0, 1}, {1, 2}})
	if !IsConnected(iso) {
		t.Error("isolated vertices must not break connectivity")
	}
	split := FromEdges(4, [][2]VertexID{{0, 1}, {2, 3}})
	if IsConnected(split) {
		t.Error("two disjoint edges should not be connected")
	}
}

func TestLargestComponentByEdges(t *testing.T) {
	// Component A: 3 vertices, 3 edges (triangle).
	// Component B: 4 vertices, 3 edges (path) — more vertices, fewer edges.
	g := FromEdges(7, [][2]VertexID{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 6},
	})
	sub, origin := LargestComponent(g)
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("largest = %d vertices %d edges, want 3/3 (triangle)",
			sub.NumVertices(), sub.NumEdges())
	}
	want := []VertexID{0, 1, 2}
	for i, v := range origin {
		if v != want[i] {
			t.Errorf("origin[%d] = %d, want %d", i, v, want[i])
		}
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	g := NewBuilder(3, 0).Build()
	sub, origin := LargestComponent(g)
	if sub.NumVertices() != 0 && sub.NumEdges() != 0 {
		t.Fatalf("expected empty result, got %d/%d", sub.NumVertices(), sub.NumEdges())
	}
	_ = origin
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(5, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	sub, origin := InducedSubgraph(g, func(v VertexID) bool { return v != 2 })
	if sub.NumVertices() != 4 {
		t.Fatalf("vertices = %d, want 4", sub.NumVertices())
	}
	// Edges {1,2} and {2,3} drop out.
	if sub.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", sub.NumEdges())
	}
	if len(origin) != 4 || origin[2] != 3 {
		t.Errorf("origin = %v", origin)
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Fatal("fresh unions should return true")
	}
	if u.Union(0, 2) {
		t.Fatal("redundant union should return false")
	}
	if u.Find(0) != u.Find(2) {
		t.Error("0 and 2 should share a representative")
	}
}

func TestUnionFindRandomAgainstComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	var edges [][2]VertexID
	for i := 0; i < 300; i++ {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v {
			continue
		}
		edges = append(edges, [2]VertexID{u, v})
	}
	g := FromEdges(n, edges)
	labels, _ := Components(g)
	uf := NewUnionFind(n)
	for _, e := range edges {
		uf.Union(e[0], e[1])
	}
	for i := int64(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := labels[i] == labels[j]
			if same != (uf.Find(i) == uf.Find(j)) {
				t.Fatalf("disagreement at (%d,%d)", i, j)
			}
		}
	}
}
