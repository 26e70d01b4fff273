package main

import (
	"fmt"
	"math/rand"
	"time"

	repro "repro"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
)

// deltaSolve is cliques-delta: one retained base solve of a ring of
// cliques, then a chain of repro.FindCircuitStreamDelta solves, each on the
// previous graph plus one seeded triangle inside one clique, each replaying
// the record the previous solve retained.
type deltaSolve struct {
	cliques  int64
	rng      *rand.Rand
	pairs    [][2]graph.VertexID // edges of cur, in EdgeID order
	cur      *graph.Graph
	retained []byte
	retainMS float64
	plan     time.Duration
}

func (w *deltaSolve) setup(seed int64, sz sizing, _ string) error {
	w.cliques = sz.cliques
	w.rng = rand.New(rand.NewSource(seed))
	w.cur = gen.RingOfCliques(sz.cliques, cliqueSize)
	w.pairs = sched.EdgePairs(w.cur)
	w.retained = nil
	return nil
}

func (w *deltaSolve) close() error        { return nil }
func (w *deltaSolve) graph() *graph.Graph { return w.cur }
func (w *deltaSolve) stable() bool        { return false }
func discardStep(graph.Step) error        { return nil }

// prepare solves and retains the base graph before the first operation,
// then patches the current graph with the next triangle.
func (w *deltaSolve) prepare() error {
	if w.retained == nil {
		t := time.Now()
		_, retained, err := repro.FindCircuitStreamRetain(w.cur, discardStep, solveOptions(deltaParts)...)
		if err != nil {
			return fmt.Errorf("retained base solve: %w", err)
		}
		w.retained, w.retainMS = retained, ms(time.Since(t))
	}
	tri := triangle(w.rng, w.cliques)
	w.pairs = append(w.pairs, tri[:]...)
	w.cur = graph.FromEdges(w.cur.NumVertices(), w.pairs)
	return nil
}

func (w *deltaSolve) op(emit func(graph.Step) error) error {
	_, retained, err := repro.FindCircuitStreamDelta(w.cur, emit, w.retained, solveOptions(deltaParts)...)
	if err != nil {
		return err
	}
	w.retained = retained
	return nil
}

// crossCheck holds the delta solve's circuit against a from-scratch solve
// of the same patched graph.
func (w *deltaSolve) crossCheck(sum uint64) error {
	var scratch checkSink
	if _, err := repro.FindCircuitStream(w.cur, scratch.emit, solveOptions(deltaParts)...); err != nil {
		return err
	}
	if scratch.sum != sum {
		return fmt.Errorf("delta circuit differs from the from-scratch circuit of the same patched graph")
	}
	return nil
}

// tracedOp repeats what FindCircuitStreamDelta does: decode the record,
// partition, run with record and replay, unroll, encode the new record.
func (w *deltaSolve) tracedOp(tr *tracer, opID int, emit func(graph.Step) error, sample *layerSample) error {
	root := tr.reserve("solve", 0, opID)
	t0 := time.Now()
	base, err := euler.DecodeRunRecord(w.retained)
	if err != nil {
		return err
	}
	t1 := time.Now()
	a := partition.LDG(w.cur, deltaParts, euler.DefaultSeed)
	t2 := time.Now()
	res, err := euler.Run(w.cur, a, euler.Config{Mode: euler.ModeCurrent, Record: true, Replay: base})
	t3 := time.Now()
	if err != nil {
		return err
	}
	err = res.Registry.Unroll(emit)
	t4 := time.Now()
	if err != nil {
		return err
	}
	w.retained = euler.EncodeRunRecord(res.Retained)
	t5 := time.Now()
	tr.add("euler.DecodeRunRecord", root, opID, t0, t1)
	tr.add("partition.LDG", root, opID, t1, t2)
	runSpans(tr, "euler.Run", root, opID, t2, t3, w.plan, res.Report)
	tr.add("Registry.Unroll", root, opID, t3, t4)
	tr.add("euler.EncodeRunRecord", root, opID, t4, t5)
	tr.finish(root, t0, t5)

	sample.ledger = t2.Sub(t0) + res.Report.Wall + t5.Sub(t3)
	sample.times["partition.ldg_ms"] = ms(t2.Sub(t1))
	sample.times["euler.unroll_ms"] = ms(t4.Sub(t3))
	sample.times["euler.record_codec_ms"] = ms(t1.Sub(t0) + t5.Sub(t4))
	sample.counts["euler.record_bytes"] = float64(len(w.retained))
	sample.counts["euler.reused_parts_ratio"] = reusedRatio(res.Report)
	reportLayers(res.Report, sample)
	return nil
}

// once times a from-scratch solve of the current patched graph, the base
// of euler.delta_exec_ratio.
func (w *deltaSolve) once(sample *layerSample) error {
	a := partition.LDG(w.cur, deltaParts, euler.DefaultSeed)
	partitionQuality(w.cur, a, sample)
	plan, err := timePlan(w.cur, a, inMemoryPlan)
	if err != nil {
		return err
	}
	w.plan = plan
	sample.times["euler.plan_ms"] = ms(plan)
	sample.times["euler.retain_solve_ms"] = w.retainMS
	var xs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := repro.FindCircuitStream(w.cur, discardStep, solveOptions(deltaParts)...); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	sample.times["euler.scratch_solve_ms"] = median(xs)
	return nil
}
