// Package verify checks Euler circuits and the invariants of the
// partition-centric algorithm's inputs.  It is used by the test suite and
// exposed through the public facade so downstream users can validate
// outputs independently of how they were produced.
package verify

import (
	"fmt"

	"repro/internal/graph"
)

// Circuit checks that steps form an Euler circuit of g: a closed walk in
// which consecutive steps share endpoints, every edge of g appears exactly
// once, and each step's orientation matches its edge.  An empty circuit is
// valid only for an edgeless graph.
func Circuit(g *graph.Graph, steps []graph.Step) error {
	if int64(len(steps)) != g.NumEdges() {
		return fmt.Errorf("verify: circuit has %d steps, graph has %d edges", len(steps), g.NumEdges())
	}
	if len(steps) == 0 {
		return nil
	}
	seen := make([]bool, g.NumEdges())
	for i, s := range steps {
		if s.Edge < 0 || s.Edge >= g.NumEdges() {
			return fmt.Errorf("verify: step %d references unknown edge %d", i, s.Edge)
		}
		if seen[s.Edge] {
			return fmt.Errorf("verify: edge %d traversed twice (step %d)", s.Edge, i)
		}
		seen[s.Edge] = true
		e := g.Edge(s.Edge)
		if !(s.From == e.U && s.To == e.V) && !(s.From == e.V && s.To == e.U) {
			return fmt.Errorf("verify: step %d orientation (%d→%d) does not match edge %d (%d,%d)",
				i, s.From, s.To, s.Edge, e.U, e.V)
		}
		if i > 0 && steps[i-1].To != s.From {
			return fmt.Errorf("verify: walk breaks at step %d: previous ends at %d, next starts at %d",
				i, steps[i-1].To, s.From)
		}
	}
	if steps[0].From != steps[len(steps)-1].To {
		return fmt.Errorf("verify: walk is not closed: starts at %d, ends at %d",
			steps[0].From, steps[len(steps)-1].To)
	}
	return nil
}

// Path checks that steps form an Euler path of g from src to dst: like
// Circuit but open-ended.  src == dst degenerates to Circuit.
func Path(g *graph.Graph, steps []graph.Step, src, dst graph.VertexID) error {
	if int64(len(steps)) != g.NumEdges() {
		return fmt.Errorf("verify: path has %d steps, graph has %d edges", len(steps), g.NumEdges())
	}
	if len(steps) == 0 {
		if src != dst {
			return fmt.Errorf("verify: empty path cannot join %d and %d", src, dst)
		}
		return nil
	}
	seen := make([]bool, g.NumEdges())
	for i, s := range steps {
		if s.Edge < 0 || s.Edge >= g.NumEdges() {
			return fmt.Errorf("verify: step %d references unknown edge %d", i, s.Edge)
		}
		if seen[s.Edge] {
			return fmt.Errorf("verify: edge %d traversed twice (step %d)", s.Edge, i)
		}
		seen[s.Edge] = true
		e := g.Edge(s.Edge)
		if !(s.From == e.U && s.To == e.V) && !(s.From == e.V && s.To == e.U) {
			return fmt.Errorf("verify: step %d orientation (%d→%d) does not match edge %d (%d,%d)",
				i, s.From, s.To, s.Edge, e.U, e.V)
		}
		if i > 0 && steps[i-1].To != s.From {
			return fmt.Errorf("verify: walk breaks at step %d", i)
		}
	}
	if steps[0].From != src {
		return fmt.Errorf("verify: path starts at %d, want %d", steps[0].From, src)
	}
	if steps[len(steps)-1].To != dst {
		return fmt.Errorf("verify: path ends at %d, want %d", steps[len(steps)-1].To, dst)
	}
	return nil
}

// EulerianInput checks the algorithm's preconditions: every vertex has
// even degree and all edges lie in one connected component.  Degrees come
// from the O(V) oracle and connectivity from a union-find over one edge
// scan, so a disk-backed graph is checked without materialising adjacency.
func EulerianInput(g graph.Source) error {
	var odd int64
	firstOdd := graph.VertexID(-1)
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v)%2 == 1 {
			if odd == 0 {
				firstOdd = v
			}
			odd++
		}
	}
	if odd > 0 {
		return fmt.Errorf("verify: %d vertices have odd degree (first: %d)", odd, firstOdd)
	}
	uf := graph.NewUnionFind(g.NumVertices())
	if err := g.ForEachEdge(func(e graph.Edge) error {
		uf.Union(e.U, e.V)
		return nil
	}); err != nil {
		return err
	}
	root := graph.VertexID(-1)
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) == 0 {
			continue
		}
		r := uf.Find(v)
		if root < 0 {
			root = r
		} else if r != root {
			return fmt.Errorf("verify: graph's edges span multiple connected components")
		}
	}
	return nil
}
