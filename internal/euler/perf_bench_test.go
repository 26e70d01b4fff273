package euler

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// discardBody drops every body, isolating the walk and encode cost of
// Phase 1 from body retention in the micro-benchmarks: the path of a
// worker node or a spilling run.  discardTyped drops every typed block,
// the path of an in-memory run, which encodes nothing.
var (
	discardBody  = bodySink{encoded: func(PathID, []byte) error { return nil }}
	discardTyped = bodySink{typed: func(PathID, []bodyItem) error { return nil }}
)

// benchLeafState builds partition 0's level-0 state of an Eulerian RMAT
// graph with 2^scale vertices split over parts partitions.
func benchLeafState(b *testing.B, scale int, parts int32) *PartState {
	copied, _ := benchLeafStates(b, scale, parts)
	return copied
}

// benchLeafStates builds the state of benchLeafState twice: with its
// Local copy, and held in place over the graph as a resident run's plan
// holds it.
func benchLeafStates(b *testing.B, scale int, parts int32) (copied, inPlace *PartState) {
	b.Helper()
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(scale, 7))
	a := partition.LDG(g, parts, 1)
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		b.Fatal(err)
	}
	tree := BuildMergeTree(meta, GreedyMaxWeight)
	states, _, err := BuildLeafStates(g, a, tree, ModeCurrent)
	if err != nil {
		b.Fatal(err)
	}
	held, _, err := buildInPlaceLeaves(g, a, tree, ModeCurrent)
	if err != nil {
		b.Fatal(err)
	}
	return states[0], held[0]
}

// BenchmarkPhase1 measures one Phase 1 tour over a single partition state
// at increasing local-edge counts |L| (the Fig. 6/7 hot path): over the
// copied leaf, the form of every level ≥ 1 state and every shipped leaf,
// with its bodies encoded and, as an in-memory run keeps them, typed; and
// over the same leaf held in place, the form a resident run tours at
// level 0.  An in-place leaf can be toured once, so its edges' open marks
// are restored, untimed, before each tour.
func BenchmarkPhase1(b *testing.B) {
	for _, scale := range []int{12, 14, 16} {
		st, held := benchLeafStates(b, scale, 4)
		for _, sink := range []struct {
			name string
			bodySink
		}{{"", discardBody}, {"typed/", discardTyped}} {
			b.Run(fmt.Sprintf("%sL=%d", sink.name, len(st.Local)), func(b *testing.B) {
				scratch := newPhase1Scratch()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := phase1(st, 0, sink.bodySink, nil, scratch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		open := slices.Clone(held.onGraph.open)
		b.Run(fmt.Sprintf("in-place/L=%d", held.localLen()), func(b *testing.B) {
			scratch := newPhase1Scratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(held.onGraph.open, open)
				b.StartTimer()
				if _, err := phase1(held, 0, discardBody, nil, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRMAT50k is the input of the Phase 2 regression benchmarks: the
// 50 k-vertex Eulerian RMAT graph of the root benchmarks in 8 parts, with
// its merge tree.
func benchRMAT50k(b *testing.B) (*graph.Graph, partition.Assignment, *MergeTree) {
	b.Helper()
	g, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: 50_000, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: 42})
	a := partition.LDG(g, 8, 1)
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		b.Fatal(err)
	}
	return g, a, BuildMergeTree(meta, GreedyMaxWeight)
}

// BenchmarkBuildLeafStates measures the level-0 state build: copied, as
// BuildLeafStates builds it for a shipped, retained or paged run, in
// ModeCurrent and in ModeDedup (whose stub keys are sorted and coalesced
// per partition), and held in place, as a resident run's plan builds it.
// Its allocs/op budgets (scripts/alloc_budget.txt) are a few per
// partition: an append that regrows a per-partition slice again, or a map
// per partition, would multiply them.
func BenchmarkBuildLeafStates(b *testing.B) {
	g, a, tree := benchRMAT50k(b)
	for _, bc := range []struct {
		name  string
		build func() error
	}{
		{"current", func() error { _, _, err := BuildLeafStates(g, a, tree, ModeCurrent); return err }},
		{"dedup", func() error { _, _, err := BuildLeafStates(g, a, tree, ModeDedup); return err }},
		{"in-place", func() error { _, _, err := buildInPlaceLeaves(g, a, tree, ModeCurrent); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeStates measures the four level-0 merges of the same run,
// each parent folding its child in place with its own scratch, as the
// workers do.  Only the folds are timed; restoring the toured leaf states
// between iterations (a merge consumes its child) is not.  Its allocs/op budget is a handful of
// exactly-sized buffers per merge: a map or an unsized append in the merge
// would multiply it.
func BenchmarkMergeStates(b *testing.B) {
	g, a, tree := benchRMAT50k(b)
	toured, _, err := BuildLeafStates(g, a, tree, ModeCurrent)
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range toured {
		res, err := phase1(st, 0, discardBody, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		st.Local = res.OBPairs
	}
	pairs := tree.Levels[0]
	scratch := make([]mergeScratch, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		parents, children := make([]*PartState, len(pairs)), make([]*PartState, len(pairs))
		for j, pr := range pairs {
			parents[j], children[j] = cloneState(toured[pr.Parent]), cloneState(toured[pr.Child])
		}
		b.StartTimer()
		for j := range pairs {
			if _, err := scratch[j].merge(parents[j], children[j], 0, ModeCurrent, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeState measures merge-transfer serialisation alone.
func BenchmarkEncodeState(b *testing.B) {
	st := benchLeafState(b, 14, 4)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendState(buf[:0], st)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkDecodeState measures merge-transfer deserialisation alone.
func BenchmarkDecodeState(b *testing.B) {
	st := benchLeafState(b, 14, 4)
	buf := EncodeState(st)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeState(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBodyItems builds a body of n items shaped like a real spilled
// path: ascending refs, chained endpoints, a sprinkle of path refs.
func benchBodyItems(n int) []Item {
	items := make([]Item, n)
	at := int64(0)
	for i := range items {
		kind := ItemEdge
		if i%7 == 0 {
			kind = ItemPath
		}
		items[i] = Item{Kind: kind, Ref: int64(i * 3), From: at, To: at + int64(i%5) - 2}
		at = items[i].To
	}
	return items
}

// BenchmarkAppendBody measures body serialisation alone, the per-path
// write of a Phase 1 tour whose bodies leave the process or spill.
func BenchmarkAppendBody(b *testing.B) {
	src, body := typedBody(benchBodyItems(4096))
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendBody(buf[:0], src, body)
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkDecodeBody measures body deserialisation into typed items
// alone, the per-path read Phase 3 performs on a body that arrived
// encoded.
func BenchmarkDecodeBody(b *testing.B) {
	src, body := typedBody(benchBodyItems(4096))
	buf := appendBody(nil, src, body)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	var items []bodyItem
	for i := 0; i < b.N; i++ {
		var err error
		if items, err = appendBodyItems(items[:0], buf, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnroll measures Phase 3 alone, after the run that fills the
// registry: the torus has floating cycles, so every root's walk is logged
// as runs of body items before the stitch; the RMAT graph has none, so
// steps go from the walker straight to emit.  The allocs/op budgets
// (scripts/alloc_budget.txt) are a handful of sized buffers; a slice per
// body or a map per vertex would cost thousands.
func BenchmarkUnroll(b *testing.B) {
	rmat, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: 50_000, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: 42})
	for _, in := range []struct {
		name      string
		g         *graph.Graph
		multiRoot bool
	}{
		{"torus", gen.Torus(256, 256), true},
		{"rmat", rmat, false},
	} {
		b.Run(in.name, func(b *testing.B) {
			res, err := Run(in.g, partition.LDG(in.g, 8, 1), Config{})
			if err != nil {
				b.Fatal(err)
			}
			if got := len(res.Registry.Seeds()) > 0; got != in.multiRoot {
				b.Fatalf("input has floating cycles: %v, benchmark expects %v", got, in.multiRoot)
			}
			var steps int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps = 0
				if err := res.Registry.Unroll(func(Step) error { steps++; return nil }); err != nil {
					b.Fatal(err)
				}
			}
			if steps != in.g.NumEdges() {
				b.Fatalf("unrolled %d steps of %d edges", steps, in.g.NumEdges())
			}
		})
	}
}

// BenchmarkRegistryAbsorb measures absorbing one partition's Phase 1 result
// into the run-wide registry, as every worker does once per superstep.
func BenchmarkRegistryAbsorb(b *testing.B) {
	st := benchLeafState(b, 14, 4)
	res, err := phase1(st, 0, discardBody, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	numV := int64(1) << 15 // ≥ any vertex ID in the state
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry(nil, numV, 4)
		if err := reg.Absorb(0, res, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIsVisited measures concurrent visited-map reads, the per-vertex
// query Phase 1 seeds issue from every worker at once.
func BenchmarkIsVisited(b *testing.B) {
	const numV = 1 << 20
	reg := NewRegistry(nil, numV, 8)
	res := &Phase1Result{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < numV/4; i++ {
		res.Visited = append(res.Visited, rng.Int63n(numV))
	}
	if err := reg.Absorb(0, res, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := graph.VertexID(0)
		var hits int
		for pb.Next() {
			if reg.IsVisited(v) {
				hits++
			}
			v = (v + 997) % numV
		}
		_ = hits
	})
}
