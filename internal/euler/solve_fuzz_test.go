package euler

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/oocgraph"
	"repro/internal/partition"
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

// withTriangle returns g plus the triangle a-b-c over three distinct
// vertices of nonzero degree drawn by rng, or nil when g has fewer than
// three such vertices.  The patch keeps every degree even and the graph
// connected.
func withTriangle(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	var touched []graph.VertexID
	for v := graph.VertexID(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			touched = append(touched, v)
		}
	}
	if len(touched) < 3 {
		return nil
	}
	rng.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })
	a, b, c := touched[0], touched[1], touched[2]
	bld := graph.NewBuilder(g.NumVertices(), int(g.NumEdges())+3)
	for _, e := range g.Edges() {
		bld.AddEdge(e.U, e.V)
	}
	bld.AddEdge(a, b)
	bld.AddEdge(b, c)
	bld.AddEdge(c, a)
	return bld.Build()
}

// FuzzSolveEquivalence runs solveEquivalence on fuzzed inputs.  The seed
// corpus is under testdata/fuzz.
func FuzzSolveEquivalence(f *testing.F) {
	overCluster := loopbackExecutor(f)
	f.Fuzz(func(t *testing.T, seed int64, size, parts, mode uint8) {
		solveEquivalence(t, overCluster, seed, size, parts, mode)
	})
}

// loopbackExecutor runs Phases 1–2 over a loopback cluster of two worker
// nodes that every solve shares.
func loopbackExecutor(tb testing.TB) Executor {
	ctx, hub := loopbackCluster(tb, RunWorkerNode)
	return func(_ context.Context, g *graph.Graph, a partition.Assignment, cfg Config) (*Result, error) {
		res, _, err := RunOverCluster(ctx, hub, g, a, cfg, 2)
		return res, err
	}
}

// solveEquivalence solves a random Eulerian multigraph under random parts,
// seed and mode through five specs:
//   - in memory, retaining a replay record (its leaves are copied and
//     encoded for the record before they are toured);
//   - in memory without a record, its leaves toured in place over the
//     resident graph;
//   - from a PagedGraph of its EULGRPH1 file whose page budget is the
//     two-page floor, so adjacency pages are evicted throughout the run;
//   - over a loopback cluster of two worker nodes that every input
//     shares, when there are at least two parts: co-hosted children hand
//     their states over by reference and the others as payloads, and the
//     coordinator's registry keeps the bodies the nodes' bands carry;
//   - replaying the record, first on the same graph (every node replays,
//     so no partition tours) and then on the graph plus one triangle,
//     against a from-scratch solve of that patched graph.
//
// Every circuit must verify, each pair must match step for step, the
// paged run must report the in-memory run's BSP messages, bytes and
// supersteps, and the cluster run its messages and bytes.  It returns
// the partitions the triangle delta reused (0 when g has no triangle to
// add).
func solveEquivalence(t *testing.T, overCluster Executor, seed int64, size, parts, mode uint8) int {
	t.Helper()
	g := fuzzMultigraph(rand.New(rand.NewSource(seed)), 1+int(size)%48)
	spec := SolveSpec{Parts: 1 + int32(parts)%8, Seed: seed, Mode: allModes[int(mode)%len(allModes)]}
	solve := func(src graph.Source, ref *graph.Graph, spec SolveSpec) ([]Step, *RunReport, *RunRecord) {
		t.Helper()
		var steps []Step
		report, record, err := Solve(context.Background(), src, spec, func(s Step) error {
			steps = append(steps, s)
			return nil
		})
		if err != nil {
			t.Fatalf("Solve(%T, %+v): %v", src, spec, err)
		}
		if err := verify.Circuit(ref, steps); err != nil {
			t.Fatalf("Solve(%T, %+v): %v", src, spec, err)
		}
		return steps, report, record
	}
	same := func(what string, got, want []Step) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s circuit has %d steps, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s step %d: %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	retain := spec
	retain.Retain = true
	want, wantReport, record := solve(g, g, retain)
	inPlace, _, _ := solve(g, g, spec)
	same("in-place", inPlace, want)

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
	paged := spec
	paged.SpillDir = filepath.Join(dir, "spill")
	got, report, _ := solve(pg, g, paged)
	same("paged", got, want)
	p, m := report.BSP, wantReport.BSP
	if p.Messages != m.Messages || p.Bytes != m.Bytes || p.Supersteps != m.Supersteps {
		t.Fatalf("paged BSP messages/bytes/supersteps %d/%d/%d, in-memory %d/%d/%d",
			p.Messages, p.Bytes, p.Supersteps, m.Messages, m.Bytes, m.Supersteps)
	}

	if spec.Parts >= 2 {
		cluster := spec
		cluster.Exec = overCluster
		got, report, _ = solve(g, g, cluster)
		same("cluster", got, want)
		if c := report.BSP; c.Messages != m.Messages || c.Bytes != m.Bytes {
			t.Fatalf("cluster BSP messages/bytes %d/%d, in-memory %d/%d", c.Messages, c.Bytes, m.Messages, m.Bytes)
		}
	}

	replay := spec
	replay.Replay = record
	got, report, _ = solve(g, g, replay)
	same("replayed", got, want)
	if len(report.Parts) != 0 {
		t.Fatalf("replay on the same graph toured %d partitions, want none", len(report.Parts))
	}

	patched := withTriangle(rand.New(rand.NewSource(seed)), g)
	if patched == nil {
		return 0
	}
	want, _, _ = solve(patched, patched, spec)
	got, report, _ = solve(patched, patched, replay)
	same("delta", got, want)
	return report.ReusedParts
}

// deltaReuseFloor is how many FuzzSolveEquivalence corpus seeds must have
// their triangle delta reuse at least one partition.  A delta solve re-runs
// LDG on the patched graph, and a shifted assignment drops the whole
// record, so today most seeds reuse nothing; raise the floor as replay
// coverage grows.
const deltaReuseFloor = 2

// TestDeltaReuseFloor runs solveEquivalence over the checked-in corpus and
// fails when fewer seeds than deltaReuseFloor reuse a partition.
func TestDeltaReuseFloor(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSolveEquivalence", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	overCluster := loopbackExecutor(t)
	reused := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var seed int64
		var size, parts, mode uint8
		if _, err := fmt.Sscanf(string(b), "go test fuzz v1\nint64(%d)\nuint8(%d)\nuint8(%d)\nuint8(%d)\n", &seed, &size, &parts, &mode); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if solveEquivalence(t, overCluster, seed, size, parts, mode) > 0 {
			reused++
		}
	}
	t.Logf("%d of %d seeds reused ≥ 1 part", reused, len(files))
	if reused < deltaReuseFloor {
		t.Fatalf("%d of %d seeds reused ≥ 1 part, floor %d", reused, len(files), deltaReuseFloor)
	}
}
