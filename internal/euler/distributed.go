package euler

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/partition"
)

// RunOverCluster executes Phases 1 and 2 across the worker nodes
// registered with hub: the plan is built here, sliced per node, and fanned
// out; each barrier streams the nodes' absorb bands into this process's
// Registry and broadcasts the visited union back.  On success the returned
// Result is byte-for-byte what the single-process Run would produce for
// the same input — Phase 3 unrolls it locally.
//
// Each node runs its hosted workers on its own engine's slots (at most
// the node's GOMAXPROCS at once): cfg.Sequential and cfg.Cost shape only
// the in-process Run and never reach the nodes.  On any node
// failure the job is aborted cluster-wide and an error returned; nothing
// of the partial run is retained.
func RunOverCluster(ctx context.Context, hub *bsp.Hub, g *graph.Graph, a partition.Assignment, cfg Config, minNodes int) (*Result, *bsp.JobStats, error) {
	plan, tree, err := buildPlan(g, a, cfg, true)
	if err != nil {
		return nil, nil, err
	}
	plan.encodeLeaves() // this process only slices the plan, never runs a leaf
	n := plan.NumWorkers

	registry := NewRegistry(cfg.Store, g.NumVertices(), n)
	sink := NewAbsorbSink(registry)

	spec := bsp.JobSpec{
		NumWorkers: n,
		MinNodes:   minNodes,
		PlanFor:    plan.EncodeSlice,
	}
	hooks := bsp.JobHooks{OnSideband: sink.Apply, Broadcast: sink.TakeDelta}
	wallStart := time.Now()
	stats, err := hub.RunJob(ctx, spec, hooks)
	wall := time.Since(wallStart)
	if err != nil {
		return nil, nil, err
	}
	if !registry.PromoteFirstSeed() {
		return nil, nil, fmt.Errorf("euler: cluster run completed without a master cycle")
	}
	if err := registry.Seal(); err != nil {
		return nil, nil, err
	}

	// Stitch the node results back into one report: reports concatenate,
	// liveLongs rows land at their worker indices, and the per-instance
	// BSP metrics merge superstep by superstep.
	var parts []PartReport
	liveLongs := make([][]int64, n)
	var instanceMetrics []bsp.Metrics
	for _, r := range stats.Results {
		wr, err := DecodeWorkerResult(r.Payload)
		if err != nil {
			return nil, nil, fmt.Errorf("euler: result from node %d: %w", r.Node.ID, err)
		}
		if wr.Lo != r.Lo || wr.Hi != r.Hi {
			return nil, nil, fmt.Errorf("euler: node %d reported range [%d, %d), assigned [%d, %d)", r.Node.ID, wr.Lo, wr.Hi, r.Lo, r.Hi)
		}
		parts = append(parts, wr.Parts...)
		for i, row := range wr.LiveLongs {
			liveLongs[wr.Lo+i] = row
		}
		instanceMetrics = append(instanceMetrics, wr.Metrics)
	}
	metrics := bsp.MergeMetrics(instanceMetrics...)

	report := assembleReport(cfg.Mode, plan.Height, plan.ParkedLongsAt, liveLongs, parts, metrics, wall)
	report.WireBytes = stats.WireBytes
	return &Result{Registry: registry, Tree: tree, Report: report}, stats, nil
}

// RunWorkerNode is the node-side job handler: decode the plan slice, host
// its worker range over the job's transport, and return the encoded
// worker result.  It is the body internal/cluster wires into
// bsp.ServeNode.
func RunWorkerNode(nodeJob *bsp.NodeJob) ([]byte, error) {
	plan, err := DecodePlanSlice(nodeJob.Plan)
	if err != nil {
		return nil, fmt.Errorf("euler: decoding plan slice: %w", err)
	}
	if plan.Lo != nodeJob.Lo || plan.Hi != nodeJob.Hi || plan.NumWorkers != nodeJob.NumWorkers {
		return nil, fmt.Errorf("euler: plan slice [%d, %d) of %d workers does not match assignment [%d, %d) of %d",
			plan.Lo, plan.Hi, plan.NumWorkers, nodeJob.Lo, nodeJob.Hi, nodeJob.NumWorkers)
	}
	engine := bsp.New(plan.NumWorkers, bsp.WithWorkerRange(plan.Lo, plan.Hi), bsp.WithTransport(nodeJob.Transport))
	wp := NewWorkerProgram(plan, engine.Slots())
	m, err := engine.Run(wp)
	if err != nil {
		return nil, err
	}
	return wp.Result(m), nil
}
