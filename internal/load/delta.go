package load

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/service/job"
	"repro/internal/stats"
)

// runDeltaStorm drives the delta-submission flow of a DeltaStorm
// scenario: one full solve establishes the retained base, then every
// job diffs an edge against its fingerprint.  Each delta job's circuit
// is verified on the locally patched graph, compared byte for byte
// against a from-scratch solve of the identical patched graph on the
// standalone reference server, and must be what a full upload of that
// graph to the delta's own server hits in its cache; the from-scratch
// exec times are what the delta exec p95 is gated against.
func runDeltaStorm(ctx context.Context, sc Scenario, env Env) (bench.ScenarioResult, error) {
	timeout := sc.JobTimeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	tpl := sc.Templates[0]
	spec := tpl.Spec.Clone()
	if err := spec.Validate(); err != nil {
		return bench.ScenarioResult{}, fmt.Errorf("validating base template: %w", err)
	}
	kind := jobkind.MustGet(spec.Kind)
	base, err := spec.Generator.Build()
	if err != nil {
		return bench.ScenarioResult{}, fmt.Errorf("building base graph: %w", err)
	}
	opts := SubmitOpts{Tenant: tpl.Tenant, Class: tpl.Class}

	// The one expensive solve everything else diffs against.  Its exec
	// time is also the first from-scratch sample.
	baseCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	baseSnap, err := env.Client.SubmitSpecAs(tpl.Spec, opts)
	if err != nil {
		return bench.ScenarioResult{}, fmt.Errorf("base submit: %w", err)
	}
	if baseSnap, err = env.Client.WaitTerminal(baseCtx, baseSnap.ID, 0); err != nil {
		return bench.ScenarioResult{}, err
	}
	if baseSnap.State != job.StateDone {
		return bench.ScenarioResult{}, fmt.Errorf("base job ended %s (%s)", baseSnap.State, baseSnap.Error)
	}
	if baseSnap.Fingerprint == "" {
		return bench.ScenarioResult{}, fmt.Errorf("scenario %s: base job carries no fingerprint — is the result cache on?", sc.Name)
	}
	var (
		fullExecMS []float64
		execMu     sync.Mutex
	)
	if baseSnap.Started != nil && baseSnap.Finished != nil {
		fullExecMS = append(fullExecMS, float64(baseSnap.Finished.Sub(*baseSnap.Started))/float64(time.Millisecond))
	}

	results := make([]jobResult, sc.Jobs)
	runOne := func(i int) {
		res := &results[i]
		res.submitAt = time.Now()
		res.tenant = tpl.Tenant
		res.kind = spec.Kind
		jobCtx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()

		// A large prime stride spreads the touched edges across the base
		// graph (and so across partitions).  Adding TWO parallel copies of
		// an existing edge keeps every vertex degree even — one copy alone
		// would flip both endpoints odd and the server would reject the
		// diff as non-Eulerian.
		e := base.Edge(graph.EdgeID((int64(i) * 104729) % base.NumEdges()))
		add := [][2]int64{{int64(e.U), int64(e.V)}, {int64(e.U), int64(e.V)}}

		snap, err := env.Client.SubmitDelta(baseSnap.Fingerprint, add, nil, opts)
		if err != nil {
			res.failed, res.err = true, fmt.Errorf("delta submit: %w", err)
			return
		}
		id := snap.ID
		snap, err = env.Client.WaitTerminal(jobCtx, id, 0)
		res.finish(snap, time.Since(res.submitAt))
		if err != nil {
			res.failed, res.err = true, err
			return
		}
		if snap.State != job.StateDone {
			res.failed, res.err = true, fmt.Errorf("delta job %s ended %s (%s)", id, snap.State, snap.Error)
			return
		}
		if !snap.Delta {
			res.failed, res.err = true, fmt.Errorf("job %s snapshot does not carry the delta flag", id)
			return
		}
		if snap.ReusedParts < 1 {
			res.failed, res.err = true, fmt.Errorf("delta job %s reused no partitions", id)
			return
		}
		raw, err := env.Client.CircuitRaw(jobCtx, id)
		if err != nil {
			res.failed, res.err = true, fmt.Errorf("streaming circuit: %w", err)
			return
		}
		steps, err := ParseResult(res.kind, raw)
		if err != nil {
			res.failed, res.err = true, fmt.Errorf("streaming circuit: %w", err)
			return
		}
		res.steps = int64(len(steps))
		patched := patchAdd(base, add)
		if err := kind.Verify(spec.KindRequest(), patched, steps); err != nil {
			res.verifyErr = err
			res.failed = true
			return
		}
		fullRaw, fullSnap, err := fullSolve(jobCtx, env.Solo, patched, spec)
		if err != nil {
			res.diffErr = err
			res.failed = true
			return
		}
		if !bytes.Equal(raw, fullRaw) {
			res.diffErr = fmt.Errorf("delta circuit differs from the from-scratch solve (%d vs %d bytes)", len(raw), len(fullRaw))
			res.failed = true
			return
		}
		// The same patched graph submitted in full to the server that ran
		// the delta must name the delta's result: the same fingerprint,
		// served from its cache.  (Each server keys its fingerprints with
		// its own secret, so the reference server's are not comparable.)
		again, err := env.Client.SubmitUploadAs(patched, spec, opts)
		if err != nil {
			res.diffErr = fmt.Errorf("full resubmission of the patched graph: %w", err)
			res.failed = true
			return
		}
		if again.Fingerprint != snap.Fingerprint || again.State != job.StateDone {
			res.diffErr = fmt.Errorf("full resubmission of the patched graph got fingerprint %s (%s), want a cache hit on the delta fingerprint %s",
				again.Fingerprint, again.State, snap.Fingerprint)
			res.failed = true
			return
		}
		if fullSnap.Started != nil && fullSnap.Finished != nil {
			execMu.Lock()
			fullExecMS = append(fullExecMS, float64(fullSnap.Finished.Sub(*fullSnap.Started))/float64(time.Millisecond))
			execMu.Unlock()
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, sc.Concurrency)
	submitted := 0
	for i := 0; i < sc.Jobs; i++ {
		if ctx.Err() != nil {
			break
		}
		submitted++
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			runOne(i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	results = results[:submitted]

	res := summarize(sc, results, elapsed, 0, nil)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("scenario %s interrupted after %d of %d jobs: %w", sc.Name, submitted, sc.Jobs, err)
	}

	// The server's own ledger must agree that deltas ran and reused
	// partition state.
	m, err := env.Client.Metrics()
	if err != nil {
		return res, fmt.Errorf("scenario %s: scraping delta metrics: %w", sc.Name, err)
	}
	num := func(key string) (float64, error) {
		v, ok := m[key].(float64)
		if !ok {
			return 0, fmt.Errorf("scenario %s: metric %s missing or non-numeric (%v)", sc.Name, key, m[key])
		}
		return v, nil
	}
	deltaJobs, err := num("delta_jobs")
	if err != nil {
		return res, err
	}
	reused, err := num("delta_reused_parts")
	if err != nil {
		return res, err
	}
	res.Metrics["server_delta_jobs"] = bench.Info(deltaJobs, "count")
	res.Metrics["delta_reused_parts_total"] = bench.HigherBetter(reused, "count", 0.45, 1)
	if deltaJobs < 1 {
		return res, fmt.Errorf("scenario %s: server executed no delta jobs", sc.Name)
	}
	if reused < 1 {
		return res, fmt.Errorf("scenario %s: no delta execution reused retained partitions", sc.Name)
	}

	// The latency gate: incremental recompute vs from-scratch solve of
	// the same patched graphs, exec time only (submit-side diff patching
	// is deliberately excluded — latency_p95_ms covers the whole trip).
	var deltaExecMS []float64
	for i := range results {
		if results[i].executed && results[i].state == job.StateDone {
			deltaExecMS = append(deltaExecMS, float64(results[i].exec)/float64(time.Millisecond))
		}
	}
	deltaP95 := stats.Summarize(deltaExecMS).P95
	fullP95 := stats.Summarize(fullExecMS).P95
	res.Metrics["delta_exec_p95_ms"] = bench.LowerBetter(deltaP95, "ms", 1.5, 250)
	res.Metrics["full_solve_exec_p95_ms"] = bench.Info(fullP95, "ms")
	if len(deltaExecMS) > 0 && fullP95 > 0 {
		ratio := deltaP95 / fullP95
		res.Metrics["delta_vs_full_exec_p95"] = bench.LowerBetter(ratio, "frac", 0.5, 0.05)
		if sc.DeltaMaxExecRatio > 0 && ratio > sc.DeltaMaxExecRatio {
			return res, fmt.Errorf("scenario %s: delta exec p95 %.1fms is %.2fx the from-scratch p95 %.1fms (ceiling %.2fx): incremental recompute is not paying for itself",
				sc.Name, deltaP95, ratio, fullP95, sc.DeltaMaxExecRatio)
		}
	}
	return res, hardFailures(sc, results)
}

// patchAdd rebuilds g with extra edges appended, in exactly the order
// the server's diff application produces them (base edge-ID order, then
// the additions) so solves of the two graphs are byte-comparable.
func patchAdd(g *graph.Graph, add [][2]int64) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices(), int(g.NumEdges())+len(add))
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for _, p := range add {
		b.AddEdge(graph.VertexID(p[0]), graph.VertexID(p[1]))
	}
	return b.Build()
}

// fullSolve solves the patched graph from scratch on the standalone
// reference server via an EULGRPH1 upload, returning the raw stream and
// terminal snapshot.
func fullSolve(ctx context.Context, solo *Client, g *graph.Graph, spec job.Spec) ([]byte, job.Snapshot, error) {
	if solo == nil {
		return nil, job.Snapshot{}, fmt.Errorf("scenario compares against a standalone server but none is running")
	}
	snap, err := solo.SubmitUpload(g, spec)
	if err != nil {
		return nil, snap, fmt.Errorf("from-scratch submit: %w", err)
	}
	if snap, err = solo.WaitTerminal(ctx, snap.ID, 0); err != nil {
		return nil, snap, err
	}
	if snap.State != job.StateDone {
		return nil, snap, fmt.Errorf("from-scratch job ended %s (%s)", snap.State, snap.Error)
	}
	raw, err := solo.CircuitRaw(ctx, snap.ID)
	return raw, snap, err
}
