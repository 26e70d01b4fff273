package graph

// Components labels every vertex with a connected-component ID in
// [0, count).  Component IDs are assigned in order of the smallest vertex in
// the component, so the labelling is deterministic.  Isolated vertices form
// their own components.
func Components(g *Graph) (labels []int32, count int32) {
	labels = make([]int32, g.NumVertices())
	for i := range labels {
		labels[i] = -1
	}
	var queue []VertexID
	for v := int64(0); v < g.NumVertices(); v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = count
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, h := range g.Adj(u) {
				if labels[h.To] < 0 {
					labels[h.To] = count
					queue = append(queue, h.To)
				}
			}
		}
		count++
	}
	return labels, count
}

// LargestComponent returns the vertex set of the largest connected
// component that contains at least one edge, as a sorted slice, along with a
// dense re-mapping of the subgraph induced on it.  The second return value
// maps new vertex IDs back to the original IDs.  If the graph has no edges
// it returns an empty graph.
func LargestComponent(g *Graph) (*Graph, []VertexID) {
	labels, count := Components(g)
	if count == 0 {
		return NewBuilder(0, 0).Build(), nil
	}
	// Count edges per component; the "largest" component is by edge count,
	// since edge coverage is what an Euler circuit consumes.
	edgeCount := make([]int64, count)
	for _, e := range g.Edges() {
		edgeCount[labels[e.U]]++
	}
	best := int32(0)
	for c := int32(1); c < count; c++ {
		if edgeCount[c] > edgeCount[best] {
			best = c
		}
	}
	return InducedSubgraph(g, func(v VertexID) bool { return labels[v] == best })
}

// InducedSubgraph returns the subgraph induced on the vertices for which
// keep returns true, with vertices re-numbered densely in ascending original
// order.  The second return value maps new IDs to original IDs.
func InducedSubgraph(g *Graph, keep func(VertexID) bool) (*Graph, []VertexID) {
	remap := make([]int64, g.NumVertices())
	var origin []VertexID
	for v := int64(0); v < g.NumVertices(); v++ {
		if keep(v) {
			remap[v] = int64(len(origin))
			origin = append(origin, v)
		} else {
			remap[v] = -1
		}
	}
	var kept int
	for _, e := range g.Edges() {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			kept++
		}
	}
	b := NewBuilder(int64(len(origin)), kept)
	for _, e := range g.Edges() {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			b.AddEdge(remap[e.U], remap[e.V])
		}
	}
	return b.Build(), origin
}

// IsConnected reports whether all vertices with non-zero degree belong to a
// single connected component.  Isolated vertices are ignored, matching the
// Euler circuit existence criterion.
func IsConnected(g *Graph) bool {
	labels, _ := Components(g)
	seen := int32(-1)
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			continue
		}
		if seen < 0 {
			seen = labels[v]
		} else if labels[v] != seen {
			return false
		}
	}
	return true
}

// UnionFind is a disjoint-set forest with path halving and union by size.
// It is used by the Eulerizer's connectivity stitching and by tests.
type UnionFind struct {
	parent []int64
	size   []int64
}

// NewUnionFind returns a UnionFind over n singleton elements.
func NewUnionFind(n int64) *UnionFind {
	u := &UnionFind{parent: make([]int64, n), size: make([]int64, n)}
	for i := range u.parent {
		u.parent[i] = int64(i)
		u.size[i] = 1
	}
	return u
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int64) int64 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning true if they were distinct.
func (u *UnionFind) Union(a, b int64) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	return true
}
