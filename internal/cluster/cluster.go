// Package cluster gives eulerd its multi-process mode: a Coordinator that
// owns the bsp.Hub, fans jobs out over joined worker nodes, and finishes
// Phase 3 locally; and a Worker loop that joins a coordinator and hosts
// engine workers.  The algorithm lives in internal/euler; this package is
// role wiring, the retry policy, and status reporting.
package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Options configures a Coordinator.
type Options struct {
	// MinNodes is the number of joined worker nodes a job waits for
	// before starting (minimum 1).
	MinNodes int
	// WaitNodes bounds how long a job waits for MinNodes nodes before
	// failing (default 30s).
	WaitNodes time.Duration
	// StepTimeout bounds one barrier round-trip before the job is failed
	// (default 2 minutes; see bsp.HubOptions).
	StepTimeout time.Duration
	// JobRetries is how many times a job is re-executed after a
	// retryable cluster failure (node lost, step timeout).  Each retry
	// re-waits for quorum and rebuilds the plan over the surviving
	// membership.  0 disables retries.
	JobRetries int
	// RetryBackoff is the pause before each retry, giving dropped
	// participants time to re-register (default 500ms).
	RetryBackoff time.Duration
	// DegradedLocal, when set, falls back to the in-process engine when
	// quorum cannot be reached within WaitNodes — or when retries are
	// exhausted on a retryable failure — so the job still completes,
	// flagged degraded, instead of failing the client.
	DegradedLocal bool
	// Logf receives lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// Coordinator runs the cluster control plane: node registration, job
// fan-out, barrier/merge scheduling, and result collection.
type Coordinator struct {
	hub          *bsp.Hub
	opts         Options
	jobsRun      atomic.Int64
	jobsFail     atomic.Int64
	jobsRetried  atomic.Int64 // jobs that needed at least one retry
	replans      atomic.Int64 // re-plan events (attempts after the first)
	degradedRuns atomic.Int64 // jobs completed via the in-process fallback

	errMu     sync.Mutex
	lastErr   string
	lastErrAt time.Time
}

// NewCoordinator listens on addr for worker-node joins.
func NewCoordinator(addr string, opts Options) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listening on %s: %w", addr, err)
	}
	if opts.MinNodes < 1 {
		opts.MinNodes = 1
	}
	if opts.WaitNodes <= 0 {
		opts.WaitNodes = 30 * time.Second
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 500 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	hub := bsp.NewHub(ln, bsp.HubOptions{StepTimeout: opts.StepTimeout, Logf: opts.Logf})
	return &Coordinator{hub: hub, opts: opts}, nil
}

// Addr returns the cluster listen address.
func (c *Coordinator) Addr() net.Addr { return c.hub.Addr() }

// Close shuts the control plane down, dropping every joined node.
func (c *Coordinator) Close() error { return c.hub.Close() }

// Status is the /v1/cluster payload.
type Status struct {
	Role          string         `json:"role"`
	Addr          string         `json:"addr"`
	MinNodes      int            `json:"min_nodes"`
	Nodes         []bsp.NodeInfo `json:"nodes"`
	Epoch         uint64         `json:"epoch"`
	JobsRun       int64          `json:"jobs_run"`
	JobsFailed    int64          `json:"jobs_failed"`
	JobsRetried   int64          `json:"jobs_retried"`
	Replans       int64          `json:"replans"`
	DegradedRuns  int64          `json:"degraded_runs"`
	JobRetries    int            `json:"job_retries"`
	DegradedLocal bool           `json:"degraded_local"`
	LastError     string         `json:"last_error,omitempty"`
	LastErrorAt   *time.Time     `json:"last_error_at,omitempty"`
}

// ClusterStatus implements the httpapi status hook.
func (c *Coordinator) ClusterStatus() any {
	s := Status{
		Role:          "coordinator",
		Addr:          c.hub.Addr().String(),
		MinNodes:      c.opts.MinNodes,
		Nodes:         c.hub.Nodes(),
		Epoch:         c.hub.Epoch(),
		JobsRun:       c.jobsRun.Load(),
		JobsFailed:    c.jobsFail.Load(),
		JobsRetried:   c.jobsRetried.Load(),
		Replans:       c.replans.Load(),
		DegradedRuns:  c.degradedRuns.Load(),
		JobRetries:    c.opts.JobRetries,
		DegradedLocal: c.opts.DegradedLocal,
	}
	c.errMu.Lock()
	s.LastError = c.lastErr
	if !c.lastErrAt.IsZero() {
		t := c.lastErrAt
		s.LastErrorAt = &t
	}
	c.errMu.Unlock()
	return s
}

// ClusterMetrics implements the optional httpapi metrics hook: the
// coordinator's counters under the "cluster" key of /v1/metrics.
func (c *Coordinator) ClusterMetrics() map[string]int64 {
	return map[string]int64{
		"jobs_run":      c.jobsRun.Load(),
		"jobs_failed":   c.jobsFail.Load(),
		"jobs_retried":  c.jobsRetried.Load(),
		"replans":       c.replans.Load(),
		"degraded_runs": c.degradedRuns.Load(),
	}
}

// recordError notes a job failure for /v1/cluster's last_error field.
func (c *Coordinator) recordError(err error) {
	c.errMu.Lock()
	c.lastErr = err.Error()
	c.lastErrAt = time.Now()
	c.errMu.Unlock()
}

// RunInfo describes how a cluster job's execution went.
type RunInfo struct {
	// Attempts is the number of execution attempts (1 = first try).
	Attempts int
	// Replans is how many times the partition plan was rebuilt for a
	// retry (attempts after the first).
	Replans int
	// Degraded marks a job completed through the in-process fallback
	// after the cluster could not serve it.
	Degraded bool
}

// Run executes Phases 1 and 2 of one circuit computation across the
// cluster under the coordinator's retry policy and returns the Result
// ready for Phase 3 in this process.  Each attempt waits for quorum and
// runs under a fresh hub epoch (the epoch machinery rejects stale frames
// from aborted attempts).  On a retryable failure — a node lost
// mid-barrier or a superstep timeout — it backs off, re-waits for quorum,
// and goes again, up to JobRetries times; every attempt reuses the
// caller's assignment (RunOverCluster rebuilds the plan and re-slices it
// over whatever membership survived), so a retried run is byte-identical
// to the first attempt.  With DegradedLocal set, a job the cluster cannot
// serve (no quorum, or retries exhausted on a retryable error) falls back
// to the in-process engine and completes flagged degraded.
func (c *Coordinator) Run(ctx context.Context, g *graph.Graph, a partition.Assignment, cfg euler.Config) (*euler.Result, RunInfo, error) {
	var info RunInfo
	for attempt := 1; ; attempt++ {
		info.Attempts = attempt
		if attempt > 1 {
			info.Replans++
			c.replans.Add(1)
		}

		waitCtx, cancel := context.WithTimeout(ctx, c.opts.WaitNodes)
		err := c.hub.WaitNodes(waitCtx, c.opts.MinNodes)
		cancel()
		quorum := c.opts.MinNodes
		if err != nil && attempt > 1 {
			// Retries relax quorum: the job already held MinNodes once,
			// so finishing on the survivors beats failing the client.
			if live := c.hub.NumNodes(); live >= 1 {
				c.opts.Logf("cluster: quorum %d unreachable on retry %d; re-planning over %d survivor(s)", c.opts.MinNodes, attempt-1, live)
				quorum, err = live, nil
			}
		}
		if err != nil {
			c.recordError(err)
			if c.opts.DegradedLocal && ctx.Err() == nil {
				return c.runDegraded(g, a, cfg, info)
			}
			c.jobsFail.Add(1)
			return nil, info, err
		}

		attemptCtx, cancelAttempt := context.WithCancel(ctx)
		res, _, err := euler.RunOverCluster(attemptCtx, c.hub, g, a, cfg, quorum)
		cancelAttempt()
		if err == nil {
			c.jobsRun.Add(1)
			return res, info, nil
		}
		c.recordError(err)

		retryable := bsp.Retryable(err) && ctx.Err() == nil
		if retryable && attempt <= c.opts.JobRetries {
			if attempt == 1 {
				c.jobsRetried.Add(1)
			}
			c.opts.Logf("cluster: attempt %d failed (%v); retrying in %v", attempt, err, c.opts.RetryBackoff)
			if !sleepCtx(ctx, c.opts.RetryBackoff) {
				c.jobsFail.Add(1)
				return nil, info, ctx.Err()
			}
			continue
		}
		if retryable && c.opts.DegradedLocal {
			return c.runDegraded(g, a, cfg, info)
		}
		c.jobsFail.Add(1)
		return nil, info, err
	}
}

// runDegraded completes a job the cluster could not serve by running the
// engine in-process over LocalTransport.  The circuit is identical to
// what the cluster would have produced for the same plan; only the
// execution placement degrades.
func (c *Coordinator) runDegraded(g *graph.Graph, a partition.Assignment, cfg euler.Config, info RunInfo) (*euler.Result, RunInfo, error) {
	c.opts.Logf("cluster: falling back to degraded in-process execution")
	res, err := euler.Run(g, a, cfg)
	if err != nil {
		c.jobsFail.Add(1)
		return nil, info, err
	}
	info.Degraded = true
	c.degradedRuns.Add(1)
	c.jobsRun.Add(1)
	return res, info, nil
}

// sleepCtx sleeps for d, returning false early if ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Solve is euler.Solve with Phases 1–2 executed over the cluster: the
// serving layer installs it as its solver.  Spec resolution, partitioning,
// spill placement and Phase 3 are the one pipeline's; only the executor
// and the report's Attempts/Degraded differ from an in-process solve.
func (c *Coordinator) Solve(ctx context.Context, src graph.Source, spec euler.SolveSpec, emit func(graph.Step) error) (*euler.RunReport, *euler.RunRecord, error) {
	var info RunInfo
	spec.Exec = func(ctx context.Context, g *graph.Graph, a partition.Assignment, cfg euler.Config) (*euler.Result, error) {
		res, ri, err := c.Run(ctx, g, a, cfg)
		info = ri
		return res, err
	}
	report, record, err := euler.Solve(ctx, src, spec, emit)
	if err != nil {
		return nil, nil, err
	}
	report.Attempts = info.Attempts
	report.Degraded = info.Degraded
	return report, record, nil
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Name identifies the node in coordinator diagnostics.
	Name string
	// Capacity is the number of engine workers this node hosts (its
	// share of the job's partitions); minimum 1.
	Capacity int
	// Logf receives lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// RunWorker joins the coordinator at addr and hosts engine workers until
// ctx is cancelled, reconnecting with backoff whenever the control
// connection drops.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	return bsp.ServeNode(ctx, addr, func(nodeJob *bsp.NodeJob) ([]byte, error) {
		return euler.RunWorkerNode(nodeJob)
	}, bsp.NodeOptions{Name: opts.Name, Capacity: opts.Capacity, Logf: opts.Logf})
}
