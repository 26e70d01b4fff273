package euler

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/seq"
)

// benchOptions scales the paper's graphs down far enough that each
// experiment iteration completes in roughly a second; raise the factor
// (cmd/eulerbench -scale) for the full-size reports.
func benchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.ScaleFactor = 0.002
	return o
}

// runExperiment is the shared driver for the per-table/figure benchmarks:
// each iteration regenerates the complete artefact.
func runExperiment(b *testing.B, id string) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := bench.RunByID(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

func BenchmarkTable1(b *testing.B)                 { runExperiment(b, "table1") }
func BenchmarkFig4DegreeDistribution(b *testing.B) { runExperiment(b, "fig4") }
func BenchmarkFig5WeakScaling(b *testing.B)        { runExperiment(b, "fig5") }
func BenchmarkFig6TimeSplit(b *testing.B)          { runExperiment(b, "fig6") }
func BenchmarkFig7Phase1Complexity(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8MemoryState(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig9VertexComposition(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkCoordinationCost(b *testing.B)       { runExperiment(b, "coord") }

// benchGraph builds one shared mid-size Eulerian RMAT input for the
// micro-benchmarks (~50k vertices, ~130k undirected edges).
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	g, _ := NewEulerianRMAT(50_000, 5, 42)
	return g
}

// BenchmarkDistributedEndToEnd measures the full pipeline (partition,
// Phases 1–3) per mode at 8 partitions.
func BenchmarkDistributedEndToEnd(b *testing.B) {
	g := benchGraph(b)
	for _, mode := range []Mode{ModeCurrent, ModeDedup, ModeProposed} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges())
			for i := 0; i < b.N; i++ {
				c, err := FindCircuit(g, WithPartitions(8), WithMode(mode))
				if err != nil {
					b.Fatal(err)
				}
				if int64(len(c.Steps)) != g.NumEdges() {
					b.Fatal("short circuit")
				}
			}
		})
	}
}

// BenchmarkSolveRMAT solves the benchmark's rmat-solve graph (160 k
// vertices, 1.05 M edges, 8 parts) through the streaming facade, one mode
// per sub-benchmark.  It is the profiling target of CONTRIBUTING.md's
// profile recipe; CI smoke-runs it once.
func BenchmarkSolveRMAT(b *testing.B) {
	g, _ := NewEulerianRMAT(400_000, 5, 42)
	for _, mode := range []Mode{ModeCurrent, ModeDedup, ModeProposed} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(g.NumEdges())
			for i := 0; i < b.N; i++ {
				var n int64
				_, err := FindCircuitStream(g, func(Step) error { n++; return nil }, WithPartitions(8), WithMode(mode))
				if err != nil {
					b.Fatal(err)
				}
				if n != g.NumEdges() {
					b.Fatal("short circuit")
				}
			}
		})
	}
}

// BenchmarkSequentialHierholzer is the O(|E|) baseline on the same input.
func BenchmarkSequentialHierholzer(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.SetBytes(g.NumEdges())
	for i := 0; i < b.N; i++ {
		steps, err := FindCircuitSeq(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(steps)) != g.NumEdges() {
			b.Fatal("short circuit")
		}
	}
}

// BenchmarkMakkiBaseline measures the vertex-centric walker's superstep
// cost on a small graph (its O(|E|) barriers make larger inputs pointless).
func BenchmarkMakkiBaseline(b *testing.B) {
	g, _ := NewEulerianRMAT(2_000, 4, 7)
	a := partition.LDG(g, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps, m, err := seq.Makki(g, a, bsp.CostModel{})
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(steps)) != g.NumEdges() || m.Supersteps < int(g.NumEdges()) {
			b.Fatal("unexpected makki result")
		}
	}
}

// BenchmarkPhases12 measures the distributed Phases 1–2 (tours, merges,
// transfers) without Phase 3's unroll, isolating the BSP pipeline cost.
func BenchmarkPhases12(b *testing.B) {
	g := benchGraph(b)
	a := partition.LDG(g, 4, 1)
	b.ReportAllocs()
	b.SetBytes(g.NumEdges())
	for i := 0; i < b.N; i++ {
		if _, err := euler.Run(g, a, euler.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRMATGenerate measures the parallel generator.
func BenchmarkRMATGenerate(b *testing.B) {
	p := gen.DefaultRMAT(16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gen.RMAT(p)
		if g.NumVertices() != 1<<16 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkEulerize measures the degree-fixing pass.
func BenchmarkEulerize(b *testing.B) {
	raw := gen.RMAT(gen.DefaultRMAT(16, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eg, _ := gen.Eulerize(raw)
		if !eg.IsEulerian() {
			b.Fatal("not Eulerian")
		}
	}
}

// BenchmarkPartitionLDG measures the streaming partitioner.
func BenchmarkPartitionLDG(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := partition.LDG(g, 8, 1)
		if err := a.Validate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateEncode measures the merge-transfer serialisation that the
// shuffle cost model charges for.
func BenchmarkStateEncode(b *testing.B) {
	g := benchGraph(b)
	a := partition.LDG(g, 4, 1)
	meta, err := euler.BuildMetaGraph(g, a)
	if err != nil {
		b.Fatal(err)
	}
	tree := euler.BuildMergeTree(meta, euler.GreedyMaxWeight)
	states, _, err := euler.BuildLeafStates(g, a, tree, euler.ModeCurrent)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := euler.EncodeState(states[0])
		if _, err := euler.DecodeState(buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(buf)))
	}
}

// --- Ablation benches: the design choices of internal/bench.Ablations ---

// BenchmarkAblationMatching compares merge-pair strategies end to end.
func BenchmarkAblationMatching(b *testing.B) {
	g := benchGraph(b)
	a := partition.LDG(g, 8, 1)
	for _, s := range []struct {
		name  string
		strat euler.MatchStrategy
	}{
		{"greedy-max", euler.GreedyMaxWeight},
		{"greedy-min", euler.GreedyMinWeight},
		{"random", euler.RandomMatch(7)},
	} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := euler.Run(g, a, euler.Config{Strategy: s.strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartitioner compares LDG vs hash end to end.
func BenchmarkAblationPartitioner(b *testing.B) {
	g := benchGraph(b)
	for _, p := range []struct {
		name string
		a    partition.Assignment
	}{
		{"ldg", partition.LDG(g, 8, 1)},
		{"hash", partition.Hash(g, 8)},
	} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := euler.Run(g, p.a, euler.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDedup isolates the Section 5 modes (the dedup-only mode
// vs full proposal vs the paper's current design).
func BenchmarkAblationDedup(b *testing.B) {
	g := benchGraph(b)
	a := partition.LDG(g, 8, 1)
	for _, mode := range []Mode{ModeCurrent, ModeDedup, ModeProposed} {
		b.Run(mode.String(), func(b *testing.B) {
			var longs int64
			for i := 0; i < b.N; i++ {
				res, err := euler.Run(g, a, euler.Config{Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				longs = res.Report.Levels[0].CumulativeLongs
			}
			b.ReportMetric(float64(longs), "level0-longs")
		})
	}
}

// BenchmarkScalingPartitions sweeps the partition count on a fixed graph
// (the strong-scaling axis of Fig. 5).
func BenchmarkScalingPartitions(b *testing.B) {
	g := benchGraph(b)
	for _, k := range []int32{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p%d", k), func(b *testing.B) {
			a := partition.LDG(g, k, 1)
			for i := 0; i < b.N; i++ {
				if _, err := euler.Run(g, a, euler.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
