package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	repro "repro"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oocgraph"
	"repro/internal/partition"
	"repro/internal/spill"
)

// pagedSolve is torus-paged: the out-of-core path from an EULGRPH1 file —
// oocgraph.BuildPaged with a page budget of about a fifth of the graph,
// then repro.FindCircuitStreamSource (sequential workers, spilled leaf
// states, disk-backed bodies).
type pagedSolve struct {
	g    *graph.Graph // the same torus in memory, for verification
	path string       // its EULGRPH1 file
	dir  string
	opts oocgraph.BuildOptions
	plan time.Duration
}

func (w *pagedSolve) setup(_ int64, sz sizing, dir string) error {
	w.g, w.dir = gen.Torus(sz.pagedSide, sz.pagedSide), dir
	w.path = filepath.Join(dir, "torus.bin")
	w.opts = oocgraph.BuildOptions{MemBytes: sz.pagedMemBytes, PageHalves: sz.pagedPageHalves}
	return graph.WriteFile(w.path, w.g)
}

func (w *pagedSolve) close() error        { return os.RemoveAll(w.dir) }
func (w *pagedSolve) graph() *graph.Graph { return w.g }
func (w *pagedSolve) stable() bool        { return true }

// opDir is the scratch directory of one operation: the halves blob, the
// spilled leaf states and the body log all go there.
func (w *pagedSolve) opDir() string { return filepath.Join(w.dir, "op") }

// prepare gives the next operation an empty scratch directory; deleting
// the previous one's files is not part of a solve.
func (w *pagedSolve) prepare() error {
	if err := os.RemoveAll(w.opDir()); err != nil {
		return err
	}
	return os.MkdirAll(w.opDir(), 0o755)
}

func (w *pagedSolve) buildPaged() (*oocgraph.PagedGraph, error) {
	opts := w.opts
	opts.Dir = w.opDir()
	return oocgraph.BuildPaged(w.path, opts)
}

func (w *pagedSolve) op(emit func(graph.Step) error) error {
	pg, err := w.buildPaged()
	if err != nil {
		return err
	}
	defer pg.Close()
	_, err = repro.FindCircuitStreamSource(pg, w.opDir(), emit, solveOptions(solveParts)...)
	return err
}

// crossCheck holds the paged circuit against the in-memory solve of the
// same torus.
func (w *pagedSolve) crossCheck(sum uint64) error {
	var mem checkSink
	if _, err := repro.FindCircuitStream(w.g, mem.emit, solveOptions(solveParts)...); err != nil {
		return err
	}
	if mem.sum != sum {
		return fmt.Errorf("paged circuit differs from the in-memory circuit of the same torus")
	}
	return nil
}

// tracedOp repeats what FindCircuitStreamSource does, with the page
// source and both stores wrapped in timers.
func (w *pagedSolve) tracedOp(tr *tracer, opID int, emit func(graph.Step) error, sample *layerSample) error {
	faults0, _, _ := oocgraph.Stats()
	root := tr.reserve("solve", 0, opID)
	t0 := time.Now()
	pg, err := w.buildPaged()
	if err != nil {
		return err
	}
	defer pg.Close()
	t1 := time.Now()
	src := &timedSource{Source: pg}
	a := partition.LDG(src, solveParts, euler.DefaultSeed)
	t2 := time.Now()
	bodies, err := newTimedDiskStore(filepath.Join(w.opDir(), euler.SpillLogName))
	if err != nil {
		return err
	}
	defer bodies.Close()
	leaves, err := newTimedDiskStore(filepath.Join(w.opDir(), "leaf-init.log"))
	if err != nil {
		return err
	}
	defer leaves.Close()
	res, err := euler.Run(src, a, euler.Config{
		Mode: euler.ModeCurrent, Store: bodies, Sequential: true, InitStore: leaves, ScratchDir: w.opDir(),
	})
	t3 := time.Now()
	if err != nil {
		return err
	}
	err = res.Registry.Unroll(emit)
	t4 := time.Now()
	if err != nil {
		return err
	}
	tr.add("oocgraph.BuildPaged", root, opID, t0, t1)
	tr.add("partition.LDG", root, opID, t1, t2)
	runSpans(tr, "euler.Run", root, opID, t2, t3, w.plan, res.Report)
	tr.add("Registry.Unroll", root, opID, t3, t4)
	tr.finish(root, t0, t4)

	faults1, _, _ := oocgraph.Stats()
	sample.ledger = t2.Sub(t0) + res.Report.Wall + t4.Sub(t3)
	sample.times["oocgraph.build_ms"] = ms(t1.Sub(t0))
	sample.times["partition.ldg_ms"] = ms(t2.Sub(t1))
	sample.times["euler.unroll_ms"] = ms(t4.Sub(t3))
	sample.times["oocgraph.adj_ms"] = ms(src.adj)
	sample.counts["oocgraph.page_faults"] = float64(faults1 - faults0)
	sample.counts["oocgraph.faults_per_kedge"] = 1000 * float64(faults1-faults0) / float64(w.g.NumEdges())
	sample.times["spill.put_ms"] = ms(bodies.put + leaves.put)
	sample.times["spill.get_ms"] = ms(bodies.get + leaves.get)
	sample.counts["spill.puts"] = float64(bodies.puts + leaves.puts)
	sample.counts["spill.gets"] = float64(bodies.gets + leaves.gets)
	sample.counts["spill.bytes_written"] = float64(bodies.bytesWritten + leaves.bytesWritten)
	reportLayers(res.Report, sample)
	return nil
}

func newTimedDiskStore(path string) (*timedStore, error) {
	ds, err := spill.NewDiskStore(path)
	if err != nil {
		return nil, err
	}
	return &timedStore{Store: ds}, nil
}

// once times plan building on the out-of-core leaf path, in a scratch
// directory of its own.
func (w *pagedSolve) once(sample *layerSample) error {
	if err := w.prepare(); err != nil {
		return err
	}
	pg, err := w.buildPaged()
	if err != nil {
		return err
	}
	defer pg.Close()
	a := partition.LDG(pg, solveParts, euler.DefaultSeed)
	partitionQuality(w.g, a, sample)
	// Plan building spills the leaf states, so every call gets a store.
	w.plan, err = timePlan(pg, a, func(i int) (euler.Config, func(), error) {
		leaves, err := spill.NewDiskStore(filepath.Join(w.opDir(), fmt.Sprintf("plan-leaves-%d.log", i)))
		if err != nil {
			return euler.Config{}, nil, err
		}
		cfg := euler.Config{Mode: euler.ModeCurrent, InitStore: leaves, ScratchDir: w.opDir()}
		return cfg, func() { leaves.Close() }, nil
	})
	if err != nil {
		return err
	}
	sample.times["euler.plan_ms"] = ms(w.plan)
	return nil
}
