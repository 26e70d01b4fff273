// Package partition assigns the vertices of a graph to k parts and reports
// the partition-quality metrics of the paper's Table 1.
//
// The paper partitions its inputs with ParHIP, an external multilevel
// partitioner.  The algorithm itself only consumes the resulting
// assignment (boundary sets, remote-edge fractions, imbalance), so this
// package substitutes a Linear Deterministic Greedy (LDG) streaming
// partitioner over a BFS vertex ordering, which produces realistic edge-cut
// fractions and load imbalance on power-law graphs, plus hash and range
// baselines for the ablation benchmarks.  LDG makes one BFS pass: each
// vertex's adjacency is read once, which matters when the source is a
// paged on-disk CSR.
package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Assignment maps every vertex of a graph to a partition in [0, Parts).
type Assignment struct {
	Parts int32
	Of    []int32 // indexed by VertexID
}

// Validate checks that the assignment covers exactly the vertices of g with
// in-range partition IDs and that every partition is non-empty.
func (a Assignment) Validate(g graph.Source) error {
	if int64(len(a.Of)) != g.NumVertices() {
		return fmt.Errorf("partition: assignment covers %d vertices, graph has %d",
			len(a.Of), g.NumVertices())
	}
	seen := make([]bool, a.Parts)
	for v, p := range a.Of {
		if p < 0 || p >= a.Parts {
			return fmt.Errorf("partition: vertex %d assigned out-of-range part %d", v, p)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: part %d is empty", p)
		}
	}
	return nil
}

// Sizes returns the number of vertices in each partition.
func (a Assignment) Sizes() []int64 {
	sizes := make([]int64, a.Parts)
	for _, p := range a.Of {
		sizes[p]++
	}
	return sizes
}

// Hash assigns vertices to partitions by a multiplicative hash of their ID.
// It is the quality floor for the partitioner ablation: edge cuts approach
// (k-1)/k of all edges.
func Hash(g graph.Source, k int32) Assignment {
	a := Assignment{Parts: k, Of: make([]int32, g.NumVertices())}
	for v := int64(0); v < g.NumVertices(); v++ {
		h := uint64(v) * 0x9e3779b97f4a7c15
		a.Of[v] = int32(h % uint64(k))
	}
	fixEmpty(&a, g)
	return a
}

// Range assigns contiguous vertex-ID blocks to partitions.  For generators
// with ID locality (torus, ring of cliques) this yields low edge cuts.
func Range(g graph.Source, k int32) Assignment {
	n := g.NumVertices()
	a := Assignment{Parts: k, Of: make([]int32, n)}
	for v := int64(0); v < n; v++ {
		p := int32(v * int64(k) / n)
		a.Of[v] = p
	}
	fixEmpty(&a, g)
	return a
}

// Sentinels in Assignment.Of while LDG runs: a vertex is unseen until
// the BFS enqueues it, queued until it is dequeued and placed.
const (
	unseen int32 = -1
	queued int32 = -2
)

// LDG runs Linear Deterministic Greedy streaming partitioning over a BFS
// vertex ordering: each vertex goes to the partition holding most of its
// already-placed neighbours, discounted by a load penalty (1 - size/cap).
// The BFS order makes neighbour information available early, which is what
// gives streaming partitioners their edge-cut advantage on power-law
// graphs.
//
// The BFS and the scoring share one pass: a vertex is placed as it is
// dequeued, so the neighbours placed before it are exactly those dequeued
// before it, and one Adj call per vertex both scores it and extends the
// frontier.  The BFS starts at a seeded random root and restarts at the
// lowest unseen vertex for each further component.
func LDG(g graph.Source, k int32, seed int64) Assignment {
	n := g.NumVertices()
	a := Assignment{Parts: k, Of: make([]int32, n)}
	for i := range a.Of {
		a.Of[i] = unseen
	}
	capacity := float64(n)/float64(k) + 1
	sizes := make([]int64, k)
	neigh := make([]int64, k) // scratch: neighbours already in each part
	// Every vertex is enqueued exactly once, so queue ends as the full
	// BFS order and never grows past n.
	queue := make([]graph.VertexID, 0, n)
	if n > 0 {
		start := rand.New(rand.NewSource(seed)).Int63n(n)
		a.Of[start] = queued
		queue = append(queue, start)
	}
	next := graph.VertexID(0) // restart cursor: all vertices below it are seen
	for head := 0; head < int(n); head++ {
		if head == len(queue) {
			for a.Of[next] != unseen {
				next++
			}
			a.Of[next] = queued
			queue = append(queue, next)
		}
		v := queue[head]
		clear(neigh)
		for _, h := range g.Adj(v) {
			switch p := a.Of[h.To]; {
			case p >= 0:
				neigh[p]++
			case p == unseen:
				a.Of[h.To] = queued
				queue = append(queue, h.To)
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
			// Deterministic tie-break: lower load, then lower part ID.
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

// fixEmpty moves one vertex into any empty partition so downstream code can
// assume every part is populated.  Only tiny graphs with k close to n ever
// trigger it.
func fixEmpty(a *Assignment, g graph.Source) {
	sizes := a.Sizes()
	for p := int32(0); p < a.Parts; p++ {
		if sizes[p] > 0 {
			continue
		}
		// Take a vertex from the largest partition.
		donor := int32(0)
		for q := int32(1); q < a.Parts; q++ {
			if sizes[q] > sizes[donor] {
				donor = q
			}
		}
		for v := int64(0); v < g.NumVertices(); v++ {
			if a.Of[v] == donor {
				a.Of[v] = p
				sizes[donor]--
				sizes[p]++
				break
			}
		}
	}
}
