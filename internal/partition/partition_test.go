package partition

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func testGraph() *graph.Graph {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(10, 11))
	return g
}

func TestHashValidates(t *testing.T) {
	g := testGraph()
	a := Hash(g, 4)
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestRangeValidates(t *testing.T) {
	g := testGraph()
	a := Range(g, 5)
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Range must be monotone in vertex ID.
	prev := int32(0)
	for _, p := range a.Of {
		if p < prev {
			t.Fatal("range assignment not monotone")
		}
		prev = p
	}
}

func TestLDGValidates(t *testing.T) {
	g := testGraph()
	for _, k := range []int32{2, 3, 4, 8} {
		a := LDG(g, k, 1)
		if err := a.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestLDGBeatsHashOnCut(t *testing.T) {
	g := testGraph()
	ldg := EdgeCut(g, LDG(g, 4, 1))
	hash := EdgeCut(g, Hash(g, 4))
	if ldg >= hash {
		t.Errorf("LDG cut %d not better than hash cut %d", ldg, hash)
	}
}

func TestLDGBalanced(t *testing.T) {
	g := testGraph()
	a := LDG(g, 4, 1)
	m := ComputeMetrics(g, a)
	if m.Imbalance > 0.9 {
		t.Errorf("LDG imbalance %.2f is degenerate", m.Imbalance)
	}
}

func TestRangeOnTorusLowCut(t *testing.T) {
	g := gen.Torus(16, 16)
	a := Range(g, 4)
	m := ComputeMetrics(g, a)
	// Contiguous row blocks of a torus cut only the horizontal seams.
	if m.RemoteFraction > 0.3 {
		t.Errorf("range cut fraction %.2f too high on torus", m.RemoteFraction)
	}
}

func TestMetricsTinyGraph(t *testing.T) {
	g, part := gen.PaperFigure1()
	a := Assignment{Parts: 4, Of: part}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := ComputeMetrics(g, a)
	if m.Vertices != 14 || m.DirectedEdges != 32 {
		t.Fatalf("V=%d E=%d, want 14/32", m.Vertices, m.DirectedEdges)
	}
	// Fig. 1a has 7 remote (undirected) edges: e2,3 e3,13 e1,14 e6,11 e9,10.
	// Recount: cut edges are {1,2},{2,12},{0,13},{5,10},{8,9} → 5.
	if cut := EdgeCut(g, a); cut != 5 {
		t.Fatalf("edge cut = %d, want 5", cut)
	}
	// Boundary vertices: v1,v2,v3,v6,v9,v10,v11,v13,v14 per Fig. 1a (yellow).
	if m.BoundaryVertices != 9 {
		t.Fatalf("boundary vertices = %d, want 9", m.BoundaryVertices)
	}
}

func TestValidateErrors(t *testing.T) {
	g := gen.Cycle(6)
	if err := (Assignment{Parts: 2, Of: []int32{0, 1}}).Validate(g); err == nil {
		t.Error("short assignment should fail")
	}
	if err := (Assignment{Parts: 2, Of: []int32{0, 1, 2, 0, 1, 0}}).Validate(g); err == nil {
		t.Error("out-of-range part should fail")
	}
	if err := (Assignment{Parts: 3, Of: []int32{0, 1, 0, 1, 0, 1}}).Validate(g); err == nil {
		t.Error("empty part should fail")
	}
}

func TestSizes(t *testing.T) {
	a := Assignment{Parts: 3, Of: []int32{0, 1, 1, 2, 2, 2}}
	s := a.Sizes()
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Fatalf("Sizes = %v", s)
	}
}

func TestFixEmpty(t *testing.T) {
	// k larger than distinct hash buckets on a tiny graph can leave empty
	// parts; fixEmpty must repair them.
	g := gen.Cycle(8)
	a := Hash(g, 8)
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsString(t *testing.T) {
	g := gen.Cycle(6)
	a := Range(g, 2)
	if s := ComputeMetrics(g, a).String(); s == "" {
		t.Fatal("empty string rendering")
	}
}

// ldgTwoPass is the two-pass LDG that the fused one replaced, kept as the
// reference: a full BFS order first, then a second adjacency pass that
// scores each vertex against the neighbours placed before it.
func ldgTwoPass(g graph.Source, k int32, seed int64) Assignment {
	n := g.NumVertices()
	a := Assignment{Parts: k, Of: make([]int32, n)}
	for i := range a.Of {
		a.Of[i] = -1
	}
	capacity := float64(n)/float64(k) + 1
	sizes := make([]int64, k)
	neigh := make([]int64, k)
	for _, v := range bfsOrderReference(g, seed) {
		clear(neigh)
		for _, h := range g.Adj(v) {
			if p := a.Of[h.To]; p >= 0 {
				neigh[p]++
			}
		}
		best := int32(0)
		bestScore := -1.0
		for p := int32(0); p < k; p++ {
			penalty := 1 - float64(sizes[p])/capacity
			if penalty < 0 {
				penalty = 0
			}
			score := float64(neigh[p]) * penalty
			if score > bestScore ||
				(score == bestScore && sizes[p] < sizes[best]) {
				best, bestScore = p, score
			}
		}
		a.Of[v] = best
		sizes[best]++
	}
	fixEmpty(&a, g)
	return a
}

// bfsOrderReference returns all vertices in BFS order from a seeded random
// root, restarting at the lowest unvisited vertex for other components.
func bfsOrderReference(g graph.Source, seed int64) []graph.VertexID {
	n := g.NumVertices()
	order := make([]graph.VertexID, 0, n)
	visited := make([]bool, n)
	var queue []graph.VertexID
	rng := rand.New(rand.NewSource(seed))
	enqueue := func(v graph.VertexID) {
		visited[v] = true
		queue = append(queue, v)
	}
	enqueue(rng.Int63n(n))
	for next := int64(0); ; {
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, h := range g.Adj(v) {
				if !visited[h.To] {
					enqueue(h.To)
				}
			}
		}
		for next < n && visited[next] {
			next++
		}
		if next >= n {
			break
		}
		enqueue(next)
	}
	return order
}

// scatteredComponents is a 40-vertex graph whose components interleave in
// ID order (so the BFS restarts several times), with isolated vertices
// and parallel edges.
func scatteredComponents() *graph.Graph {
	var edges [][2]graph.VertexID
	// Three cycles over the residues mod 3 of 0..29, each with a doubled
	// and a tripled edge.
	for r := graph.VertexID(0); r < 3; r++ {
		for i := graph.VertexID(0); i < 10; i++ {
			edges = append(edges, [2]graph.VertexID{r + 3*i, r + 3*((i+1)%10)})
		}
		edges = append(edges, [2]graph.VertexID{r, r + 3}, [2]graph.VertexID{r + 6, r + 9}, [2]graph.VertexID{r + 6, r + 9})
	}
	// A path 31-35-33 with a parallel pair; 30, 32, 34 and 36..39 stay
	// isolated.
	edges = append(edges, [2]graph.VertexID{31, 35}, [2]graph.VertexID{35, 33}, [2]graph.VertexID{35, 33})
	return graph.FromEdges(40, edges)
}

// TestLDGMatchesTwoPass pins the one-pass LDG to the two-pass reference:
// the assignment must be bit-identical on every family, through BFS
// restarts, isolated vertices and parallel edges, for every k and seed.
func TestLDGMatchesTwoPass(t *testing.T) {
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(10, 11))
	graphs := map[string]*graph.Graph{
		"torus":         gen.Torus(24, 17),
		"rmat":          rmat,
		"rawRMAT":       gen.RMAT(gen.DefaultRMAT(9, 5)), // many components, isolated vertices
		"ringOfCliques": gen.RingOfCliques(8, 7),
		"randomWalks":   gen.RandomEulerian(300, 6, 40, rand.New(rand.NewSource(3))),
		"components":    scatteredComponents(),
		"singleVertex":  graph.FromEdges(1, nil),
	}
	for name, g := range graphs {
		for _, k := range []int32{1, 2, 3, 8, 16} {
			for _, seed := range []int64{1, 2, 7, 42} {
				got, want := LDG(g, k, seed), ldgTwoPass(g, k, seed)
				if !slices.Equal(got.Of, want.Of) {
					t.Fatalf("%s k=%d seed=%d: one-pass assignment differs from the two-pass reference", name, k, seed)
				}
			}
		}
	}
}
