package euler

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spill"
)

// Config configures a distributed run.
//
// Where the level-0 leaves live follows from the source and from where
// they run, not from a field: a resident *graph.Graph's leaves are held
// in place, with no copy of their edges, unless the run records or
// replays (Record, Replay) or ships its plan to a cluster, whose leaves
// are copied and encoded; any other source's leaves are copied, or
// spilled to InitStore.
type Config struct {
	// Mode selects the remote-edge strategy (ModeCurrent reproduces the
	// paper's implementation; ModeProposed its Section 5 heuristics).
	Mode Mode
	// Strategy picks merge pairs; nil means GreedyMaxWeight (the paper's).
	Strategy MatchStrategy
	// Store receives path bodies; nil keeps them in the Registry.
	Store spill.Store
	// Cost models platform overhead; the zero model adds none.
	Cost bsp.CostModel
	// Validate enables per-level invariant checking (parity, Lemma 1
	// counts); it roughly doubles merge cost and is meant for tests.
	Validate bool
	// Sequential gives the BSP engine one slot, so the workers of each
	// superstep run one at a time, for interference-free per-partition
	// timing (Fig. 7); otherwise they run on GOMAXPROCS slots.
	Sequential bool
	// Record retains replay material (the pristine plan plus every node's
	// Phase 1 outcome and path bodies) in the result, so a later run on
	// a slightly different graph can reuse clean partitions.
	Record bool
	// Replay supplies a prior run's retained record; nodes whose entire
	// leaf-group input is byte-identical to the retained run are replayed
	// instead of re-toured.  Structural drift degrades to full recompute.
	Replay *RunRecord
	// InitStore switches plan building to the out-of-core leaf path:
	// leaf states are encoded into this store (keyed by worker ID) one
	// partition at a time instead of being held in the Plan, and workers
	// decode them lazily at superstep 0.  The full edge list is
	// never resident.  Out-of-core plans cannot be sliced for cluster
	// shipment (EncodeSlice fails); they are a single-process facility.
	InitStore spill.Store
	// ScratchDir hosts the out-of-core leaf build's temp bucket files
	// ("" = the OS temp dir).  Only read when InitStore is set.
	ScratchDir string
}

// Result is the outcome of Phases 1 and 2: a Registry ready for Phase 3's
// Unroll, plus the full instrumentation report.
type Result struct {
	Registry *Registry
	Tree     *MergeTree
	Report   *RunReport
	// Retained is the replay material captured when Config.Record is set.
	Retained *RunRecord
}

// message type tags for BSP payloads.
const (
	msgState  byte = 'S' // serialised PartState from a merging child
	msgParked byte = 'P' // parked remote-edge batch from a leaf host
)

// Run executes the partition-centric algorithm (Phases 1 and 2) over the
// BSP engine: one worker per leaf partition, one superstep per merge-tree
// level plus one, exactly the dlog(n)e+1 coordination complexity of
// Sec. 3.5.  The returned Registry holds everything Phase 3 needs.
//
// Run is the single-process path: all workers live in this process, the
// engine uses bsp.LocalTransport, and the program's absorb/visited seams
// point straight at the Registry.  The cluster coordinator reuses the same
// plan and program over a TCP transport (see internal/cluster).
func Run(g graph.Source, a partition.Assignment, cfg Config) (*Result, error) {
	if cfg.InitStore != nil && (cfg.Record || cfg.Replay != nil) {
		return nil, fmt.Errorf("euler: out-of-core runs (InitStore) do not support Record/Replay")
	}
	plan, tree, err := BuildPlan(g, a, cfg)
	if err != nil {
		return nil, err
	}
	n := plan.NumWorkers

	registry := NewRegistry(cfg.Store, g.NumVertices(), n)
	deps := progDeps{
		bodies:  registry.sink(),
		visited: registry.IsVisited,
		absorb:  registry.Absorb,
		init:    cfg.InitStore,
	}

	// Retention must snapshot the plan before the engine consumes its
	// leaves and parked pools, and replay must diff against the same
	// pristine view; both read the leaves as bytes.
	if cfg.Record || cfg.Replay != nil {
		plan.encodeLeaves()
	}
	var retained *RunRecord
	var recorder *runRecorder
	if cfg.Record {
		planBytes, err := plan.EncodeSlice(0, plan.NumWorkers)
		if err != nil {
			return nil, err
		}
		recorder = &runRecorder{}
		deps.record = recorder.record
		retained = &RunRecord{PlanBytes: planBytes}
	}
	reused := 0
	if cfg.Replay != nil {
		replaySet := buildReplaySet(plan, cfg.Replay)
		if len(replaySet) > 0 {
			if err := restoreBodies(registry, replaySet, cfg.Replay.Bodies); err != nil {
				return nil, err
			}
			deps.replay = func(w, s int) *NodeRecord { return replaySet[nodeKey{w, s}] }
			reused = len(replaySet)
		}
	}

	engineOpts := []bsp.Option{bsp.WithCostModel(cfg.Cost), bsp.WithTransport(bsp.LocalTransport{})}
	if cfg.Sequential {
		engineOpts = append(engineOpts, bsp.WithSequentialWorkers())
	}
	engine := bsp.New(n, engineOpts...)
	program := newPartProgram(plan, deps, engine.Slots())
	wallStart := time.Now()
	metrics, err := engine.Run(program)
	wall := time.Since(wallStart)
	if err != nil {
		return nil, err
	}
	if !registry.PromoteFirstSeed() {
		return nil, fmt.Errorf("euler: run completed without a master cycle")
	}
	// Merge the per-worker absorption shards into the read-only pathMap and
	// anchored index Phase 3 traverses; duplicate IDs surface here.
	if err := registry.Seal(); err != nil {
		return nil, err
	}

	report := assembleReport(cfg.Mode, plan.Height, plan.ParkedLongsAt, program.liveLongs, program.parts(), metrics, wall)
	report.ReusedParts = reused
	if recorder != nil {
		retained.Nodes = recorder.sorted()
		bodies, err := collectBodies(registry, retained.Nodes)
		if err != nil {
			return nil, err
		}
		retained.Bodies = bodies
	}
	return &Result{Registry: registry, Tree: tree, Report: report, Retained: retained}, nil
}

// assembleReport builds the RunReport from per-worker instrumentation.
// liveLongs rows cover workers in ID order (the full set for a local run;
// the cluster coordinator concatenates the node slices before calling).
func assembleReport(mode Mode, height int, parkedLongsAt []int64, liveLongs [][]int64, parts []PartReport, metrics bsp.Metrics, wall time.Duration) *RunReport {
	report := &RunReport{
		Mode:       mode,
		TreeHeight: height,
		BSP:        metrics,
		Wall:       wall,
		Parts:      parts,
	}
	sort.Slice(report.Parts, func(i, j int) bool {
		if report.Parts[i].Level != report.Parts[j].Level {
			return report.Parts[i].Level < report.Parts[j].Level
		}
		return report.Parts[i].Part < report.Parts[j].Part
	})
	for l := 0; l <= height; l++ {
		lr := LevelReport{Level: l}
		if l < len(parkedLongsAt) {
			lr.ParkedLongs = parkedLongsAt[l]
		}
		lr.Active = len(report.PartsAt(l))
		for _, row := range liveLongs {
			if l < len(row) && row[l] > 0 {
				lr.Live++
				lr.CumulativeLongs += row[l]
			}
		}
		if lr.Live > 0 {
			lr.AvgLongs = lr.CumulativeLongs / int64(lr.Live)
		}
		report.Levels = append(report.Levels, lr)
	}
	return report
}
