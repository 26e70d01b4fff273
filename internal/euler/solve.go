package euler

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spill"
)

// SolveSpec is everything the entry points above Solve distinguish: the
// facade's options, a served job's spec, and the cluster's executor all
// translate into one of these.  A new solve-path feature is a field here
// plus one stage below, never another entry point.
type SolveSpec struct {
	// Parts is the partition count (0 = DefaultParts), clamped to the
	// vertex count; Seed seeds the partitioner (0 = DefaultSeed).
	Parts int32
	Seed  int64
	// Assign bypasses the built-in LDG partitioner.
	Assign *partition.Assignment
	// Mode, Cost and Validate pass through to Config.
	Mode     Mode
	Cost     bsp.CostModel
	Validate bool
	// SpillDir is where a source that is not a resident *graph.Graph
	// spills its path bodies and leaf states (created if missing; "" = a
	// temp directory removed on return).  A resident graph keeps its
	// bodies in the Registry and ignores it.
	SpillDir string
	// Retain captures a replay record of this run; Replay reuses an
	// earlier run's record for the partitions that did not change.
	Retain bool
	Replay *RunRecord
	// Exec runs Phases 1–2 in place of the in-process Run; a cluster
	// coordinator installs itself here.  It needs a resident graph and
	// supports neither a non-resident source nor Retain/Replay.
	Exec Executor
}

// Executor is the shape of Phases 1–2 as Solve invokes them.
type Executor func(ctx context.Context, g *graph.Graph, a partition.Assignment, cfg Config) (*Result, error)

// Solver is Solve's shape: the seam where the serving layer substitutes a
// cluster-backed (or fake) pipeline for the in-process one.
type Solver func(ctx context.Context, src graph.Source, spec SolveSpec, emit func(Step) error) (*RunReport, *RunRecord, error)

// Solve is the one solve pipeline: resolve parts and seed, partition, open
// a non-resident source's spill stores, run Phases 1–2, and unroll Phase 3
// into emit, observing ctx between stages and before every emitted step.
// The record is non-nil only when spec.Retain is set.
//
// A source that is not a resident *graph.Graph (a paged disk CSR) runs the
// semi-external configuration: path bodies and leaf states spill under
// spec.SpillDir, leaf states load lazily, and workers run one at a time.
// The circuit is the one the in-memory solve emits.
func Solve(ctx context.Context, src graph.Source, spec SolveSpec, emit func(Step) error) (*RunReport, *RunRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a, err := assign(src, spec)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	_, resident := src.(*graph.Graph)
	cfg, stores, err := openStores(spec, resident)
	if err != nil {
		return nil, nil, err
	}
	defer stores.close()
	res, err := execute(ctx, src, a, cfg, spec.Exec)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if ctx.Done() != nil {
		inner := emit
		emit = func(s Step) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return inner(s)
		}
	}
	if err := res.Registry.Unroll(emit); err != nil {
		return nil, nil, err
	}
	return res.Report, res.Retained, nil
}

// assign is the partition stage: the caller's assignment, or LDG over the
// resolved part count and seed.
func assign(src graph.Source, spec SolveSpec) (partition.Assignment, error) {
	if spec.Assign != nil {
		return *spec.Assign, nil
	}
	parts, err := ResolveParts(spec.Parts, src.NumVertices())
	if err != nil {
		return partition.Assignment{}, err
	}
	return partition.LDG(src, parts, ResolveSeed(spec.Seed)), nil
}

// runStores is what the store stage opened for one run.
type runStores struct {
	bodies, leaves *spill.DiskStore
	tmp            string // temp spill directory to remove, if one was made
}

func (s *runStores) close() {
	if s.leaves != nil {
		s.leaves.Close()
	}
	if s.bodies != nil {
		s.bodies.Close()
	}
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
}

// openStores is the store stage: it turns the spec into the engine Config.
// A resident source keeps its path bodies in the Registry and opens
// nothing; any other source opens the body and leaf-state stores under
// spec.SpillDir (or a temp directory).  The caller closes the returned
// stores.
func openStores(spec SolveSpec, resident bool) (Config, *runStores, error) {
	cfg := Config{
		Mode:     spec.Mode,
		Cost:     spec.Cost,
		Validate: spec.Validate,
		Record:   spec.Retain,
		Replay:   spec.Replay,
	}
	st := &runStores{}
	if resident {
		return cfg, st, nil
	}
	dir := spec.SpillDir
	var err error
	if dir != "" {
		err = os.MkdirAll(dir, 0o755)
	} else {
		st.tmp, err = os.MkdirTemp("", "eulerooc-")
		dir = st.tmp
	}
	if err != nil {
		return cfg, nil, fmt.Errorf("euler: creating spill dir: %w", err)
	}
	if st.bodies, err = spill.NewDiskStore(filepath.Join(dir, SpillLogName)); err != nil {
		st.close()
		return cfg, nil, fmt.Errorf("euler: opening spill store: %w", err)
	}
	if st.leaves, err = spill.NewDiskStore(filepath.Join(dir, "leaf-init.log")); err != nil {
		st.close()
		return cfg, nil, fmt.Errorf("euler: opening leaf-state store: %w", err)
	}
	cfg.Store, cfg.Sequential, cfg.InitStore, cfg.ScratchDir = st.bodies, true, st.leaves, dir
	return cfg, st, nil
}

// execute is Phases 1–2: the in-process Run, or the caller's executor.
func execute(ctx context.Context, src graph.Source, a partition.Assignment, cfg Config, exec Executor) (*Result, error) {
	if exec == nil {
		return Run(src, a, cfg)
	}
	g, resident := src.(*graph.Graph)
	if !resident || cfg.Record || cfg.Replay != nil {
		return nil, fmt.Errorf("euler: an executor needs a resident graph and supports neither out-of-core nor retained runs")
	}
	return exec(ctx, g, a, cfg)
}
