// Package graph provides the undirected multigraph substrate used by the
// partition-centric Euler circuit algorithm and its supporting tools.
//
// Graphs are immutable once built: a Builder accumulates edges and Build
// freezes them into a compact CSR (compressed sparse row) adjacency
// structure.  Every undirected edge has a stable EdgeID; the adjacency lists
// store (neighbour, edge) halves so that traversals can mark individual
// edges visited even in the presence of parallel edges, which the Eulerizer
// may create.
package graph

import "fmt"

// VertexID identifies a vertex.  Vertices are dense: a graph with N vertices
// uses IDs 0..N-1.  The type is int64 to match the paper's use of 8-byte
// Longs for all state accounting.
type VertexID = int64

// EdgeID identifies an undirected edge.  Edges are dense: a graph with M
// undirected edges uses IDs 0..M-1.
type EdgeID = int64

// Edge is an undirected edge between U and V.  Self loops (U == V) are
// rejected by the Builder because an Euler circuit never needs them
// distinguished; parallel edges are allowed and receive distinct IDs.
type Edge struct {
	ID   EdgeID
	U, V VertexID
}

// Other returns the endpoint of e that is not v.  It panics if v is not an
// endpoint of e.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d (%d,%d)", v, e.ID, e.U, e.V))
}

// Half is one directed half of an undirected edge as stored in an adjacency
// list: the neighbour reached and the undirected edge traversed.
type Half struct {
	To   VertexID
	Edge EdgeID
}

// Source is the read seam the partitioner and the engine's plan-time
// passes consume instead of a concrete *Graph: degree and adjacency
// lookups plus a sequential edge scan in EdgeID order.  *Graph satisfies
// it trivially; oocgraph.PagedGraph satisfies it with disk-backed
// adjacency pages so plans can be built over graphs larger than RAM.
//
// Adj may return a slice that is only valid until the next Adj call on
// the same Source (a paged implementation reuses page buffers), so
// callers must not retain it across calls.  Implementations are not
// required to be safe for concurrent use.
type Source interface {
	// NumVertices returns the vertex count (IDs 0..NumVertices-1).
	NumVertices() int64
	// NumEdges returns the undirected edge count.
	NumEdges() int64
	// Degree returns the undirected degree of v, counting parallel edges.
	Degree(v VertexID) int64
	// Adj returns the adjacency halves of v in EdgeID order.  Callers
	// must not modify or retain the returned slice.
	Adj(v VertexID) []Half
	// ForEachEdge calls fn for every undirected edge in EdgeID order,
	// stopping at the first error and returning it.
	ForEachEdge(fn func(Edge) error) error
}

// Graph is an immutable undirected multigraph in CSR form.
type Graph struct {
	n      int64  // number of vertices
	edges  []Edge // by EdgeID
	offs   []int64
	halves []Half
}

// NumVertices returns the number of vertices (IDs 0..NumVertices-1).
func (g *Graph) NumVertices() int64 { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.edges)) }

// NumDirectedEdges returns the number of directed edge halves, i.e. twice
// the undirected edge count.  The paper reports bi-directed counts in
// Table 1; this method produces the matching figure.
func (g *Graph) NumDirectedEdges() int64 { return 2 * int64(len(g.edges)) }

// Edge returns the undirected edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the full edge slice.  Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// ForEachEdge calls fn for every edge in EdgeID order, stopping at the
// first error.  It satisfies Source for in-memory graphs.
func (g *Graph) ForEachEdge(fn func(Edge) error) error {
	for _, e := range g.edges {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// Degree returns the undirected degree of v, counting parallel edges.
func (g *Graph) Degree(v VertexID) int64 { return g.offs[v+1] - g.offs[v] }

// Adj returns the adjacency halves of v.  Callers must not modify the
// returned slice.
func (g *Graph) Adj(v VertexID) []Half { return g.halves[g.offs[v]:g.offs[v+1]] }

// OddVertices returns the vertices of odd degree in ascending order.
func (g *Graph) OddVertices() []VertexID {
	var odd []VertexID
	for v := int64(0); v < g.n; v++ {
		if g.Degree(v)%2 == 1 {
			odd = append(odd, v)
		}
	}
	return odd
}

// IsEulerian reports whether every vertex has even degree.  Together with
// connectivity over non-isolated vertices this is the classic criterion for
// the existence of an Euler circuit.
func (g *Graph) IsEulerian() bool {
	for v := int64(0); v < g.n; v++ {
		if g.Degree(v)%2 == 1 {
			return false
		}
	}
	return true
}

var _ Source = (*Graph)(nil)

// Builder accumulates edges for a Graph.  The zero value is not usable; call
// NewBuilder.
type Builder struct {
	n     int64
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.  edgeHint, if
// positive, pre-sizes the edge slice.
func NewBuilder(n int64, edgeHint int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	b := &Builder{n: n}
	if edgeHint > 0 {
		b.edges = make([]Edge, 0, edgeHint)
	}
	return b
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int64 { return b.n }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int64 { return int64(len(b.edges)) }

// AddEdge appends an undirected edge between u and v and returns its ID.
// It panics on self loops or out-of-range endpoints.
func (b *Builder) AddEdge(u, v VertexID) EdgeID {
	if u == v {
		panic(fmt.Sprintf("graph: self loop at vertex %d", u))
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{ID: id, U: u, V: v})
	return id
}

// Build freezes the accumulated edges into an immutable Graph.  The Builder
// must not be used afterwards.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, edges: b.edges}
	b.edges = nil
	g.offs = make([]int64, g.n+1)
	for _, e := range g.edges {
		g.offs[e.U+1]++
		g.offs[e.V+1]++
	}
	for v := int64(1); v <= g.n; v++ {
		g.offs[v] += g.offs[v-1]
	}
	g.halves = make([]Half, 2*len(g.edges))
	cursor := make([]int64, g.n)
	copy(cursor, g.offs[:g.n])
	for _, e := range g.edges {
		g.halves[cursor[e.U]] = Half{To: e.V, Edge: e.ID}
		cursor[e.U]++
		g.halves[cursor[e.V]] = Half{To: e.U, Edge: e.ID}
		cursor[e.V]++
	}
	return g
}

// FromEdges builds a graph with n vertices from an explicit edge list.  The
// IDs in the input are ignored; edges are re-numbered in slice order.
func FromEdges(n int64, edges [][2]VertexID) *Graph {
	b := NewBuilder(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// DegreeHistogram returns a map from degree to the number of vertices with
// that degree.
func (g *Graph) DegreeHistogram() map[int64]int64 {
	h := make(map[int64]int64)
	for v := int64(0); v < g.n; v++ {
		h[g.Degree(v)]++
	}
	return h
}
