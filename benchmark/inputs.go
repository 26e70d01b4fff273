package main

import (
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sizing fixes how large each workload's inputs are.  The benchmark runs
// at fullSize; the package's own tests run the same code at smokeSize.
type sizing struct {
	rmatVertices    int64 // rmat-solve: RMAT vertex count before largest-component
	torusSide       int64 // torus-solve: side of the square torus
	pagedSide       int64 // torus-paged: side of the square torus
	pagedMemBytes   int64 // torus-paged: resident adjacency-page budget
	pagedPageHalves int64 // torus-paged: halves per page (0 = the pager's default)
	cliques         int64 // cliques-delta: number of K13 cliques in the ring
	clusterVertices int64 // cluster-loopback: RMAT vertex count
	serveMinEdges   int64 // serve-mixed: smallest uploaded graph
	serveMaxEdges   int64 // serve-mixed: largest uploaded graph
	// maxPollLagMS is the most serve-mixed's clients may add, at the
	// median, between a job finishing and their noticing; beyond it the
	// harness would be measuring its own polling and the run fails.
	maxPollLagMS float64
}

var fullSize = sizing{
	rmatVertices:    400_000,
	torusSide:       768,
	pagedSide:       384,
	pagedMemBytes:   2 << 20,
	cliques:         4096,
	clusterVertices: 100_000,
	serveMinEdges:   20_000,
	serveMaxEdges:   80_000,
	maxPollLagMS:    2,
}

var smokeSize = sizing{
	rmatVertices:    8_000,
	torusSide:       108,
	pagedSide:       54,
	pagedMemBytes:   32 << 10,
	pagedPageHalves: 1 << 10,
	cliques:         82,
	clusterVertices: 2_000,
	serveMinEdges:   400,
	serveMaxEdges:   1_600,
	maxPollLagMS:    50, // the tests also run under the race detector
}

// Partition counts are fixed rather than derived from the core count, so
// the work is the same on any machine.
const (
	solveParts = 8
	deltaParts = 16
	cliqueSize = 13
)

// rmatGraph is the paper's input family: RMAT with the Graph500
// parameters, largest component, then degree-preserving Eulerisation.
func rmatGraph(vertices, seed int64) *graph.Graph {
	g, _ := gen.EulerianRMAT(gen.RMATParams{
		Vertices: vertices, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: seed,
	})
	return g
}

// triangle returns three edges joining three vertices that belong to one
// clique of a ring of cliques alone: every endpoint gains two edges, so the
// patched graph stays Eulerian, and the edit is local to one partition.
// (Joining three different cliques instead makes the LDG partitioner
// reassign most vertices, after which no part of a retained run can be
// replayed: 0 of 31 plan nodes, against 26 of 31 for this edit.)
func triangle(rng *rand.Rand, cliques int64) [3][2]graph.VertexID {
	// Vertex 0 of a clique's block is shared with its neighbour; the
	// others belong to this clique alone.
	base := rng.Int63n(cliques) * (cliqueSize - 1)
	p := rng.Perm(cliqueSize - 2)
	a, b, c := base+1+int64(p[0]), base+1+int64(p[1]), base+1+int64(p[2])
	return [3][2]graph.VertexID{{a, b}, {b, c}, {c, a}}
}
