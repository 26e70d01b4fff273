package main

import (
	"fmt"
	"time"

	repro "repro"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

// memSolve is the plain in-memory solve behind rmat-solve and torus-solve:
// repro.FindCircuitStream over a graph held in memory, eight partitions,
// ModeCurrent.
type memSolve struct {
	build func(seed int64, sz sizing) *graph.Graph
	// rmat marks the workload that also measures how much of a retained
	// run a one-triangle delta can replay on a skewed graph.
	rmat bool

	g    *graph.Graph
	plan time.Duration
}

func newRMATSolve() *memSolve {
	return &memSolve{rmat: true, build: func(seed int64, sz sizing) *graph.Graph {
		return rmatGraph(sz.rmatVertices, seed)
	}}
}

func newTorusSolve() *memSolve {
	return &memSolve{build: func(_ int64, sz sizing) *graph.Graph {
		return gen.Torus(sz.torusSide, sz.torusSide)
	}}
}

func (w *memSolve) setup(seed int64, sz sizing, _ string) error {
	w.g = w.build(seed, sz)
	return nil
}

func (w *memSolve) close() error            { return nil }
func (w *memSolve) graph() *graph.Graph     { return w.g }
func (w *memSolve) prepare() error          { return nil }
func (w *memSolve) stable() bool            { return true }
func (w *memSolve) crossCheck(uint64) error { return nil }

// solveOptions are the facade options of every library solve: a fixed
// partition count, ModeCurrent, and the partitioner's default seed.  The
// run's seed picks the generated inputs only: seeding the partitioner with
// it as well makes the same torus take 1.6 to 2.0 s to solve out of core
// from one seed to the next, which is the partitioner's luck, not the
// program's speed.
func solveOptions(parts int32) []repro.Option {
	return []repro.Option{repro.WithPartitions(parts), repro.WithSeed(euler.DefaultSeed), repro.WithMode(repro.ModeCurrent)}
}

func (w *memSolve) op(emit func(graph.Step) error) error {
	_, err := repro.FindCircuitStream(w.g, emit, solveOptions(solveParts)...)
	return err
}

func (w *memSolve) tracedOp(tr *tracer, opID int, emit func(graph.Step) error, sample *layerSample) error {
	root := tr.reserve("solve", 0, opID)
	t0 := time.Now()
	a := partition.LDG(w.g, solveParts, euler.DefaultSeed)
	t1 := time.Now()
	res, err := euler.Run(w.g, a, euler.Config{Mode: euler.ModeCurrent})
	t2 := time.Now()
	if err != nil {
		return err
	}
	err = res.Registry.Unroll(emit)
	t3 := time.Now()
	if err != nil {
		return err
	}
	tr.add("partition.LDG", root, opID, t0, t1)
	runSpans(tr, "euler.Run", root, opID, t1, t2, w.plan, res.Report)
	tr.add("Registry.Unroll", root, opID, t2, t3)
	tr.finish(root, t0, t3)

	sample.ledger = t1.Sub(t0) + res.Report.Wall + t3.Sub(t2)
	sample.times["partition.ldg_ms"] = ms(t1.Sub(t0))
	sample.times["euler.unroll_ms"] = ms(t3.Sub(t2))
	reportLayers(res.Report, sample)
	return nil
}

func (w *memSolve) once(sample *layerSample) error {
	a := partition.LDG(w.g, solveParts, euler.DefaultSeed)
	partitionQuality(w.g, a, sample)
	plan, err := timePlan(w.g, a, inMemoryPlan)
	if err != nil {
		return err
	}
	w.plan = plan
	sample.times["euler.plan_ms"] = ms(plan)
	if w.rmat {
		return w.rmatReplay(sample)
	}
	return nil
}

// rmatReplay retains one solve of the graph and solves it again with one
// triangle added between low-degree vertices, to report the share of the
// plan's nodes the delta path could replay.  On a skewed graph the hub
// partition is dirtied by almost any edit, so today the share is near 0.
func (w *memSolve) rmatReplay(sample *layerSample) error {
	_, retained, err := repro.FindCircuitStreamRetain(w.g, discardStep, solveOptions(solveParts)...)
	if err != nil {
		return err
	}
	var v []graph.VertexID
	for u := w.g.NumVertices() - 1; u >= 0 && len(v) < 3; u-- {
		if w.g.Degree(u) == 2 {
			v = append(v, u)
		}
	}
	if len(v) < 3 {
		return fmt.Errorf("no three degree-2 vertices to join with a triangle")
	}
	pairs := append(sched.EdgePairs(w.g), [2]graph.VertexID{v[0], v[1]}, [2]graph.VertexID{v[1], v[2]}, [2]graph.VertexID{v[2], v[0]})
	patched := graph.FromEdges(w.g.NumVertices(), pairs)
	rep, _, err := repro.FindCircuitStreamDelta(patched, discardStep, retained, solveOptions(solveParts)...)
	if err != nil {
		return err
	}
	sample.counts["euler.rmat_reused_parts_ratio"] = reusedRatio(rep)
	return nil
}

// reusedRatio is the share of a delta run's plan nodes that were replayed
// from the retained record; the report lists only the nodes that ran.
func reusedRatio(rep *euler.RunReport) float64 {
	return float64(rep.ReusedParts) / float64(rep.ReusedParts+len(rep.Parts))
}

// partitionQuality notes the share of edges an assignment cuts and the
// largest part's size relative to an even split.
func partitionQuality(g *graph.Graph, a partition.Assignment, sample *layerSample) {
	sample.counts["partition.edge_cut_ratio"] = float64(partition.EdgeCut(g, a)) / float64(g.NumEdges())
	var largest int64
	for _, n := range a.Sizes() {
		largest = max(largest, n)
	}
	sample.counts["partition.max_part_ratio"] = float64(largest) * float64(a.Parts) / float64(g.NumVertices())
}

// timePlan times euler.BuildPlan on its own: euler.Run builds its plan
// inside and reports only the BSP wall time, so this is the only way to
// see plan building from outside.  Median of three; config returns the
// configuration of each call and what to release after it.
func timePlan(g graph.Source, a partition.Assignment, config func(i int) (euler.Config, func(), error)) (time.Duration, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		cfg, release, err := config(i)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		_, _, err = euler.BuildPlan(g, a, cfg)
		xs = append(xs, float64(time.Since(t)))
		release()
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(median(xs)), nil
}

// inMemoryPlan is the plan configuration of every in-memory solve.
func inMemoryPlan(int) (euler.Config, func(), error) {
	return euler.Config{Mode: euler.ModeCurrent}, func() {}, nil
}
