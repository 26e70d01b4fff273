package httpapi

import (
	"sync/atomic"
	"time"

	"repro/internal/euler"
	"repro/internal/jobkind"
	"repro/internal/oocgraph"
	"repro/internal/sched"
)

// kindCounters are one workload kind's outcome gauges.
type kindCounters struct {
	started   atomic.Int64
	completed atomic.Int64
	cacheHits atomic.Int64
}

// metrics holds the service counters: job outcomes, emitted steps, and
// per-phase engine timings aggregated from completed jobs' RunReports
// (the user-compute split of the paper's Fig. 6 plus wall clock).
type metrics struct {
	submitted atomic.Int64
	started   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	rejected  atomic.Int64 // admission-control refusals (429/503)
	steps     atomic.Int64

	// Delta counters: completed delta (edge-diff) jobs, and the total
	// merge-tree nodes they replayed from retained base state instead of
	// re-touring.
	deltaJobs        atomic.Int64
	deltaReusedParts atomic.Int64

	// Wire-cost counters: cluster frame bytes aggregated from completed
	// jobs' RunReports, and circuit response bytes streamed by the
	// /circuit endpoint.  Both are CI-gated lower-is-better in the load
	// harness, so wire bloat fails the perf gate like a latency
	// regression would.
	clusterWireBytes atomic.Int64
	egressBytes      atomic.Int64

	// kinds carries per-workload-kind outcome counters, one fixed entry
	// per registered kind (populated by newKindCounters, then only read
	// structurally — so the atomic adds need no map lock).
	kinds map[string]*kindCounters

	// Scheduling timings: how long jobs sat queued before a worker
	// picked them up and how long the worker held them, plus the
	// deepest backlog observed.  Exposed via /v1/metrics so operators
	// and tooling can read aggregate queue pressure in one scrape
	// (the load harness itself derives per-job quantiles from each
	// job's Created/Started/Finished timestamps).
	queueWaitNanos atomic.Int64
	execNanos      atomic.Int64
	peakQueueDepth atomic.Int64

	copySrcNanos   atomic.Int64
	copySinkNanos  atomic.Int64
	createObjNanos atomic.Int64
	phase1Nanos    atomic.Int64
	wallNanos      atomic.Int64
}

// newKindCounters returns one counter set per registered workload kind.
func newKindCounters() map[string]*kindCounters {
	m := make(map[string]*kindCounters, 4)
	for _, name := range jobkind.Names() {
		m[name] = &kindCounters{}
	}
	return m
}

// kind returns the counters for a validated spec's kind; unknown names
// (impossible after validation) fall back to a discarded counter set so
// metrics can never panic a worker.
func (m *metrics) kind(name string) *kindCounters {
	if c, ok := m.kinds[name]; ok {
		return c
	}
	return &kindCounters{}
}

// observeDepth raises the high-water queue-depth mark to d if deeper.
func (m *metrics) observeDepth(d int64) {
	for {
		cur := m.peakQueueDepth.Load()
		if d <= cur || m.peakQueueDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

func (m *metrics) addReport(r *euler.RunReport) {
	if r == nil {
		// Sequence kinds solve without the engine and report nothing.
		return
	}
	var copySrc, copySink, createObj, phase1 time.Duration
	for _, p := range r.Parts {
		copySrc += p.CopySrc
		copySink += p.CopySink
		createObj += p.CreateObj
		phase1 += p.Phase1
	}
	m.copySrcNanos.Add(int64(copySrc))
	m.copySinkNanos.Add(int64(copySink))
	m.createObjNanos.Add(int64(createObj))
	m.phase1Nanos.Add(int64(phase1))
	m.wallNanos.Add(int64(r.Wall))
	m.clusterWireBytes.Add(r.WireBytes)
}

// MetricsSnapshot returns the current counters as a flat JSON-friendly
// map; cmd/eulerd also publishes it through expvar.  Per-tenant gauges
// ride under "tenants" and the result-cache counters are always
// present (zero when no cache is configured) so scrapers need no
// schema branching.
func (s *Server) MetricsSnapshot() map[string]any {
	tenants := make(map[string]map[string]any)
	for _, t := range s.sched.Tenants() {
		tenants[t.Name] = map[string]any{
			"queue_depth": t.Queued,
			"running":     t.Running,
			"rejected":    t.Rejected,
			"weight":      t.Weight,
		}
	}
	var cache sched.CacheStats
	if s.cache != nil {
		cache = s.cache.Stats()
	}
	var deltas sched.DeltaStats
	if s.deltas != nil {
		deltas = s.deltas.Stats()
	}
	kinds := make(map[string]map[string]int64, len(s.metrics.kinds))
	for name, c := range s.metrics.kinds {
		kinds[name] = map[string]int64{
			"started":    c.started.Load(),
			"completed":  c.completed.Load(),
			"cache_hits": c.cacheHits.Load(),
		}
	}
	// Out-of-core graph gauges are process-wide (the pager's atomics),
	// zero when nothing solves out of core.
	graphFaults, graphResident, graphLive := oocgraph.Stats()
	out := map[string]any{
		"kinds":                kinds,
		"queue_depth":          s.sched.Depth(),
		"running":              s.sched.Running(),
		"workers":              s.sched.Workers(),
		"tenants":              tenants,
		"jobs_retained":        s.jobs.Len(),
		"jobs_submitted":       s.metrics.submitted.Load(),
		"jobs_started":         s.metrics.started.Load(),
		"jobs_completed":       s.metrics.completed.Load(),
		"jobs_failed":          s.metrics.failed.Load(),
		"jobs_cancelled":       s.metrics.cancelled.Load(),
		"jobs_rejected":        s.metrics.rejected.Load(),
		"circuit_steps":        s.metrics.steps.Load(),
		"cluster_wire_bytes":   s.metrics.clusterWireBytes.Load(),
		"egress_bytes":         s.metrics.egressBytes.Load(),
		"queue_wait_nanos":     s.metrics.queueWaitNanos.Load(),
		"exec_nanos":           s.metrics.execNanos.Load(),
		"queue_peak_depth":     s.metrics.peakQueueDepth.Load(),
		"cache_hits":           cache.Hits,
		"cache_misses":         cache.Misses,
		"coalesced_jobs":       cache.Coalesced,
		"cache_entries":        cache.Entries,
		"cache_bytes":          cache.LiveBytes,
		"cache_log_bytes":      cache.LogBytes,
		"cache_evictions":      cache.Evictions,
		"cache_overflows":      cache.Overflows,
		"delta_jobs":           s.metrics.deltaJobs.Load(),
		"delta_reused_parts":   s.metrics.deltaReusedParts.Load(),
		"delta_entries":        int64(deltas.Entries),
		"delta_bytes":          deltas.LiveBytes,
		"delta_hits":           deltas.Hits,
		"delta_misses":         deltas.Misses,
		"delta_evictions":      deltas.Evictions,
		"graph_live_bytes":     graphLive,
		"graph_pages_resident": graphResident,
		"graph_page_faults":    graphFaults,
		"phase_nanos": map[string]int64{
			"copy_src":   s.metrics.copySrcNanos.Load(),
			"copy_sink":  s.metrics.copySinkNanos.Load(),
			"create_obj": s.metrics.createObjNanos.Load(),
			"phase1":     s.metrics.phase1Nanos.Load(),
			"wall":       s.metrics.wallNanos.Load(),
		},
	}
	// A cluster coordinator additionally reports its fault-tolerance
	// counters (jobs_run/failed/retried, replans, degraded_runs).
	if cm, ok := s.cluster.(interface{ ClusterMetrics() map[string]int64 }); ok {
		out["cluster"] = cm.ClusterMetrics()
	}
	return out
}
