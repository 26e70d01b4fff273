package euler

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/oocgraph"
	"repro/internal/verify"
)

// fuzzMultigraph draws a connected Eulerian multigraph of roughly size
// cycles: a spine cycle (two parallel edges when it has two vertices),
// closed walks over the vertices placed so far (parallel edges, high
// degrees), and many short cycles through fresh vertices that touch the
// rest of the graph at one vertex only (floating cycles).  Isolated
// vertices are mixed into the id space by a random relabelling.
func fuzzMultigraph(rng *rand.Rand, size int) *graph.Graph {
	var edges [][2]graph.VertexID
	add := func(u, v graph.VertexID) { edges = append(edges, [2]graph.VertexID{u, v}) }
	n := graph.VertexID(2 + rng.Intn(size+1))
	for v := graph.VertexID(0); v < n; v++ {
		add(v, (v+1)%n)
	}
	for w := rng.Intn(size/4 + 1); w > 0; w-- {
		start := rng.Int63n(n)
		prev := start
		for s := 2 + rng.Intn(4); s > 0; s-- {
			next := rng.Int63n(n)
			for next == prev {
				next = rng.Int63n(n)
			}
			add(prev, next)
			prev = next
		}
		if prev == start {
			prev = (start + 1) % n
			add(start, prev)
		}
		add(prev, start)
	}
	for c := rng.Intn(size + 1); c > 0; c-- {
		at := rng.Int63n(n)
		prev := at
		for i := 1 + rng.Intn(4); i > 0; i-- {
			add(prev, n)
			prev = n
			n++
		}
		add(prev, at)
	}
	total := n + rng.Int63n(int64(size)/4+1)
	label := rng.Perm(int(total))
	b := graph.NewBuilder(total, len(edges))
	for _, e := range edges {
		b.AddEdge(graph.VertexID(label[e[0]]), graph.VertexID(label[e[1]]))
	}
	return b.Build()
}

// FuzzSolveEquivalence solves a random Eulerian multigraph under random
// parts, seed and mode twice: in memory, and from a PagedGraph of its
// EULGRPH1 file whose page budget is the two-page floor, so adjacency
// pages are evicted throughout the run.  Both circuits must verify and
// match step for step, and both runs must report the same BSP messages,
// bytes and supersteps.  The seed corpus is under testdata/fuzz.
func FuzzSolveEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size, parts, mode uint8) {
		g := fuzzMultigraph(rand.New(rand.NewSource(seed)), 1+int(size)%48)
		spec := SolveSpec{Parts: 1 + int32(parts)%8, Seed: seed, Mode: allModes[int(mode)%len(allModes)]}
		solve := func(src graph.Source, spec SolveSpec) ([]Step, *RunReport) {
			t.Helper()
			var steps []Step
			report, _, err := Solve(context.Background(), src, spec, func(s Step) error {
				steps = append(steps, s)
				return nil
			})
			if err != nil {
				t.Fatalf("Solve(%T, %+v): %v", src, spec, err)
			}
			if err := verify.Circuit(g, steps); err != nil {
				t.Fatalf("Solve(%T, %+v): %v", src, spec, err)
			}
			return steps, report
		}
		want, wantReport := solve(g, spec)

		dir := t.TempDir()
		path := filepath.Join(dir, "graph.bin")
		if err := graph.WriteFile(path, g); err != nil {
			t.Fatal(err)
		}
		pg, err := oocgraph.BuildPaged(path, oocgraph.BuildOptions{Dir: dir, PageHalves: 8, MemBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Close()
		spec.SpillDir = filepath.Join(dir, "spill")
		got, report := solve(pg, spec)

		if len(got) != len(want) {
			t.Fatalf("paged circuit has %d steps, in-memory %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: paged %v, in-memory %v", i, got[i], want[i])
			}
		}
		p, m := report.BSP, wantReport.BSP
		if p.Messages != m.Messages || p.Bytes != m.Bytes || p.Supersteps != m.Supersteps {
			t.Fatalf("paged BSP messages/bytes/supersteps %d/%d/%d, in-memory %d/%d/%d",
				p.Messages, p.Bytes, p.Supersteps, m.Messages, m.Bytes, m.Supersteps)
		}
	})
}
