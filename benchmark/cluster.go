package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/partition"
)

const (
	clusterNodes    = 2
	clusterCapacity = 4
)

// clusterSolve is cluster-loopback: a coordinator and two worker nodes in
// this process, joined over loopback TCP, so that the BSP transport, the
// hub and the wire codec do real work.  An operation is Coordinator.Run
// with a fixed assignment plus the local Phase 3 unroll.
type clusterSolve struct {
	g     *graph.Graph
	a     partition.Assignment
	coord *cluster.Coordinator
	stop  context.CancelFunc
	nodes sync.WaitGroup
	plan  time.Duration
}

func (w *clusterSolve) setup(seed int64, sz sizing, _ string) error {
	w.g = rmatGraph(sz.clusterVertices, seed)
	w.a = partition.LDG(w.g, solveParts, euler.DefaultSeed)
	coord, err := cluster.NewCoordinator("127.0.0.1:0", cluster.Options{MinNodes: clusterNodes})
	if err != nil {
		return err
	}
	w.coord = coord
	ctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	for i := 0; i < clusterNodes; i++ {
		w.nodes.Add(1)
		go func() {
			defer w.nodes.Done()
			// RunWorker returns when ctx is cancelled; close waits for it.
			_ = cluster.RunWorker(ctx, coord.Addr().String(), cluster.WorkerOptions{
				Name: fmt.Sprintf("bench-node-%d", i), Capacity: clusterCapacity,
			})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := coord.ClusterStatus().(cluster.Status); ok && len(st.Nodes) == clusterNodes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker nodes did not join the coordinator within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *clusterSolve) close() error {
	w.stop()
	err := w.coord.Close()
	w.nodes.Wait()
	return err
}

func (w *clusterSolve) graph() *graph.Graph { return w.g }
func (w *clusterSolve) prepare() error      { return nil }
func (w *clusterSolve) stable() bool        { return true }

func (w *clusterSolve) op(emit func(graph.Step) error) error {
	res, _, err := w.coord.Run(context.Background(), w.g, w.a, euler.Config{Mode: euler.ModeCurrent})
	if err != nil {
		return err
	}
	return res.Registry.Unroll(emit)
}

// inProcess solves the same graph with the same assignment on the
// single-process engine.
func (w *clusterSolve) inProcess(emit func(graph.Step) error) error {
	res, err := euler.Run(w.g, w.a, euler.Config{Mode: euler.ModeCurrent})
	if err != nil {
		return err
	}
	return res.Registry.Unroll(emit)
}

func (w *clusterSolve) crossCheck(sum uint64) error {
	var local checkSink
	if err := w.inProcess(local.emit); err != nil {
		return err
	}
	if local.sum != sum {
		return fmt.Errorf("cluster circuit differs from the in-process circuit of the same assignment")
	}
	return nil
}

func (w *clusterSolve) tracedOp(tr *tracer, opID int, emit func(graph.Step) error, sample *layerSample) error {
	root := tr.reserve("solve", 0, opID)
	t0 := time.Now()
	res, info, err := w.coord.Run(context.Background(), w.g, w.a, euler.Config{Mode: euler.ModeCurrent})
	t1 := time.Now()
	if err != nil {
		return err
	}
	err = res.Registry.Unroll(emit)
	t2 := time.Now()
	if err != nil {
		return err
	}
	runSpans(tr, "Coordinator.Run", root, opID, t0, t1, w.plan, res.Report)
	tr.add("Registry.Unroll", root, opID, t1, t2)
	tr.finish(root, t0, t2)

	sample.ledger = res.Report.Wall + t2.Sub(t1)
	sample.times["euler.unroll_ms"] = ms(t2.Sub(t1))
	sample.counts["cluster.attempts"] = float64(info.Attempts)
	reportLayers(res.Report, sample)
	return nil
}

// once times the in-process solve cluster.overhead_ratio is relative to.
func (w *clusterSolve) once(sample *layerSample) error {
	partitionQuality(w.g, w.a, sample)
	plan, err := timePlan(w.g, w.a, inMemoryPlan)
	if err != nil {
		return err
	}
	w.plan = plan
	sample.times["euler.plan_ms"] = ms(plan)
	var xs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := w.inProcess(discardStep); err != nil {
			return err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	sample.times["cluster.inprocess_solve_ms"] = median(xs)
	return nil
}
