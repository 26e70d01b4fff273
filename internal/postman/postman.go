// Package postman extends the Euler-circuit machinery to non-Eulerian
// graphs — the generalisation the paper's conclusion names as future work
// ("generalizing this to non Eulerian graphs, by allowing edge revisits",
// Sec. 6) — and to open Euler paths.
//
// Two constructions are provided:
//
//   - EulerPath finds an open Euler path of a connected graph with exactly
//     two odd-degree vertices, by closing the graph with one virtual edge,
//     running the distributed partition-centric circuit algorithm, and
//     rotating the circuit so the virtual edge can be dropped.
//   - CoveringTour solves the undirected route-inspection (Chinese
//     postman) problem heuristically: odd-degree vertices are paired along
//     short connecting paths whose edges are duplicated (edge revisits),
//     and the Eulerised multigraph's circuit becomes a closed tour that
//     covers every original edge at least once.
//
// Both hand the graph they derive to the caller's circuit runner, which
// streams its Euler circuit under the context and engine options its maker
// fixed (the facade's euler.Solve, the serving layer's solver), so both
// inherit the distributed algorithm's ⌈log n⌉+1 coordination complexity.
package postman

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// collect runs run over g and gathers the circuit it streams, presized
// to g's edge count.
func collect(g *graph.Graph, run func(*graph.Graph, func(graph.Step) error) error) ([]graph.Step, error) {
	steps := make([]graph.Step, 0, g.NumEdges())
	if err := run(g, func(s graph.Step) error {
		steps = append(steps, s)
		return nil
	}); err != nil {
		return nil, err
	}
	return steps, nil
}

// EulerPath returns an open Euler path of g, which must be connected with
// exactly two odd-degree vertices.  The returned walk starts at one odd
// vertex, ends at the other, and traverses every edge exactly once.  run
// computes the closed graph's Euler circuit.
func EulerPath(g *graph.Graph, run func(*graph.Graph, func(graph.Step) error) error) ([]graph.Step, error) {
	odd := g.OddVertices()
	if len(odd) != 2 {
		return nil, fmt.Errorf("postman: Euler path needs exactly 2 odd vertices, graph has %d", len(odd))
	}
	u, v := odd[0], odd[1]

	// Close the graph with a virtual edge u–v; its ID is g.NumEdges().
	closed := graph.NewBuilder(g.NumVertices(), int(g.NumEdges())+1)
	for _, e := range g.Edges() {
		closed.AddEdge(e.U, e.V)
	}
	virtual := closed.AddEdge(u, v)

	circuit, err := collect(closed.Build(), run)
	if err != nil {
		return nil, err
	}

	// Rotate the circuit so the virtual edge is first, then drop it: the
	// remainder is an open walk between the virtual edge's endpoints.
	at := -1
	for i, s := range circuit {
		if s.Edge == virtual {
			at = i
			break
		}
	}
	if at < 0 {
		return nil, fmt.Errorf("postman: virtual edge missing from circuit")
	}
	path := make([]graph.Step, 0, len(circuit)-1)
	path = append(path, circuit[at+1:]...)
	path = append(path, circuit[:at]...)
	return path, nil
}

// TourStep is one traversal of a covering tour: Revisit marks deadheading
// traversals (the edge was already covered earlier in the tour).
type TourStep struct {
	graph.Step
	Revisit bool
}

// Tour is the result of CoveringTour.
type Tour struct {
	Steps []TourStep
	// Revisits counts deadheading traversals; the tour length is
	// |E| + Revisits.
	Revisits int64
}

// CoveringTour returns a closed walk that traverses every edge of the
// connected graph g at least once, allowing edge revisits (the
// route-inspection / Chinese postman problem).  Odd-degree vertices are
// paired greedily along shortest connecting paths (ties broken by vertex
// ID) and those paths' edges are duplicated; the optimal pairing is a
// minimum-weight perfect matching, so the result is a ≤2-approximation in
// the usual greedy sense, reported exactly via Tour.Revisits.  run
// computes the Eulerised multigraph's Euler circuit.
func CoveringTour(g *graph.Graph, run func(*graph.Graph, func(graph.Step) error) error) (*Tour, error) {
	if g.NumEdges() == 0 {
		return &Tour{}, nil
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("postman: graph is disconnected")
	}
	dupPaths, err := pairOddVertices(g)
	if err != nil {
		return nil, err
	}

	// Build the Eulerised multigraph: original edges keep their IDs;
	// duplicated edges map back to the original edge they revisit.
	b := graph.NewBuilder(g.NumVertices(), int(g.NumEdges())+len(dupPaths))
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	revisitOf := make(map[graph.EdgeID]graph.EdgeID)
	var revisits int64
	for _, orig := range dupPaths {
		e := g.Edge(orig)
		id := b.AddEdge(e.U, e.V)
		revisitOf[id] = orig
		revisits++
	}

	circuit, err := collect(b.Build(), run)
	if err != nil {
		return nil, err
	}
	tour := &Tour{Steps: make([]TourStep, 0, len(circuit)), Revisits: revisits}
	for _, s := range circuit {
		ts := TourStep{Step: s}
		if orig, ok := revisitOf[s.Edge]; ok {
			ts.Edge = orig
			ts.Revisit = true
		}
		tour.Steps = append(tour.Steps, ts)
	}
	return tour, nil
}

// pairOddVertices pairs the odd-degree vertices of g along short paths and
// returns the edge IDs to duplicate (one entry per traversed edge, with
// multiplicity).  Pairing is greedy: repeatedly take the lowest unmatched
// odd vertex and match it to the nearest unmatched odd vertex by BFS.
func pairOddVertices(g *graph.Graph) ([]graph.EdgeID, error) {
	odd := g.OddVertices()
	if len(odd)%2 != 0 {
		return nil, fmt.Errorf("postman: odd number of odd vertices: %d", len(odd))
	}
	unmatched := make(map[graph.VertexID]bool, len(odd))
	for _, v := range odd {
		unmatched[v] = true
	}
	var dup []graph.EdgeID
	// Deterministic order: ascending vertex ID.
	order := append([]graph.VertexID(nil), odd...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, src := range order {
		if !unmatched[src] {
			continue
		}
		dst, via, err := nearestUnmatched(g, src, unmatched)
		if err != nil {
			return nil, err
		}
		unmatched[src] = false
		unmatched[dst] = false
		dup = append(dup, via...)
	}
	return dup, nil
}

// nearestUnmatched BFS-searches from src for the closest other unmatched
// odd vertex and returns it with the edge IDs along one shortest path.
func nearestUnmatched(g *graph.Graph, src graph.VertexID, unmatched map[graph.VertexID]bool) (graph.VertexID, []graph.EdgeID, error) {
	type pred struct {
		vertex graph.VertexID
		edge   graph.EdgeID
	}
	preds := make(map[graph.VertexID]pred)
	visited := map[graph.VertexID]bool{src: true}
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v != src && unmatched[v] {
			// Reconstruct the path back to src.
			var via []graph.EdgeID
			for cur := v; cur != src; {
				p := preds[cur]
				via = append(via, p.edge)
				cur = p.vertex
			}
			return v, via, nil
		}
		for _, h := range g.Adj(v) {
			if !visited[h.To] {
				visited[h.To] = true
				preds[h.To] = pred{vertex: v, edge: h.Edge}
				queue = append(queue, h.To)
			}
		}
	}
	return 0, nil, fmt.Errorf("postman: no unmatched odd vertex reachable from %d (graph disconnected?)", src)
}

// VerifyTour checks a covering tour: closed walk, every edge of g covered
// at least once, and total length |E| + Revisits.
func VerifyTour(g *graph.Graph, t *Tour) error {
	if g.NumEdges() == 0 {
		if len(t.Steps) != 0 {
			return fmt.Errorf("postman: non-empty tour of edgeless graph")
		}
		return nil
	}
	if int64(len(t.Steps)) != g.NumEdges()+t.Revisits {
		return fmt.Errorf("postman: tour has %d steps, want %d edges + %d revisits",
			len(t.Steps), g.NumEdges(), t.Revisits)
	}
	covered := make([]int64, g.NumEdges())
	for i, s := range t.Steps {
		if s.Edge < 0 || s.Edge >= g.NumEdges() {
			return fmt.Errorf("postman: step %d references unknown edge %d", i, s.Edge)
		}
		covered[s.Edge]++
		e := g.Edge(s.Edge)
		if !(s.From == e.U && s.To == e.V) && !(s.From == e.V && s.To == e.U) {
			return fmt.Errorf("postman: step %d orientation mismatch", i)
		}
		if i > 0 && t.Steps[i-1].To != s.From {
			return fmt.Errorf("postman: walk breaks at step %d", i)
		}
	}
	if t.Steps[0].From != t.Steps[len(t.Steps)-1].To {
		return fmt.Errorf("postman: tour not closed")
	}
	for id, c := range covered {
		if c == 0 {
			return fmt.Errorf("postman: edge %d never covered", id)
		}
	}
	return nil
}
