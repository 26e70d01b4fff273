package sched

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// TenantConfig overrides the fair scheduler's defaults for one tenant.
type TenantConfig struct {
	// Weight is the tenant's share of dispatch capacity relative to the
	// other active tenants (minimum and default 1).
	Weight float64
	// MaxQueue caps the tenant's queued submissions (0 = the
	// scheduler-wide default).
	MaxQueue int
	// MaxRunning caps the tenant's concurrently running jobs (0 = the
	// scheduler-wide default).
	MaxRunning int
}

// FairConfig configures a Fair scheduler.
type FairConfig struct {
	// Workers is the worker count (minimum 1).
	Workers int
	// MaxQueuePerTenant is the default per-tenant queue-depth quota
	// (minimum 1; default 64).
	MaxQueuePerTenant int
	// MaxRunningPerTenant is the default per-tenant concurrency quota
	// (0 = Workers, i.e. no per-tenant limit beyond the pool).
	MaxRunningPerTenant int
	// MaxQueueTotal caps queued submissions across all tenants, a
	// memory backstop against unbounded tenant counts (0 = unlimited).
	MaxQueueTotal int
	// Tenants pre-declares per-tenant overrides; tenants not listed get
	// the defaults with weight 1.  Pre-declared tenants are never
	// pruned, so their gauges stay visible while idle.
	Tenants map[string]TenantConfig
}

// tenant is one tenant's scheduler state.
type tenant struct {
	name       string
	weight     float64
	maxQueue   int
	maxRunning int
	declared   bool // from FairConfig.Tenants; never pruned

	queues   [numClasses][]Task
	running  int
	rejected int64
	// vfinish is the tenant's virtual finish tag for start-time fair
	// queueing: the next dispatch starts at max(global vtime, vfinish)
	// and advances vfinish by 1/weight, so over time each active tenant
	// is dispatched in proportion to its weight.
	vfinish float64
}

func (t *tenant) queuedLen() int {
	n := 0
	for _, q := range t.queues {
		n += len(q)
	}
	return n
}

// pop removes the next task, interactive before batch.
func (t *tenant) pop() Task {
	for class := numClasses - 1; class >= 0; class-- {
		if q := t.queues[class]; len(q) > 0 {
			task := q[0]
			q[0] = nil
			if len(q) == 1 {
				t.queues[class] = nil // release the backing array when drained
			} else {
				t.queues[class] = q[1:]
			}
			return task
		}
	}
	return nil
}

// Fair is the weighted fair-queueing scheduler: a fixed worker set
// draining per-tenant queues by start-time fair queueing over job
// counts, with per-tenant quotas and rate-informed admission control.
// It is the HTTP layer's scheduler and is safe for concurrent use.
type Fair struct {
	cfg FairConfig

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenant
	queued  int
	running int
	vtime   float64
	closed  bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	rate    *stats.Rate
}

// NewFair starts a fair scheduler with cfg's worker count.
func NewFair(cfg FairConfig) *Fair {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.MaxQueuePerTenant < 1 {
		cfg.MaxQueuePerTenant = 64
	}
	if cfg.MaxRunningPerTenant < 1 || cfg.MaxRunningPerTenant > cfg.Workers {
		cfg.MaxRunningPerTenant = cfg.Workers
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fair{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		baseCtx: ctx,
		cancel:  cancel,
		rate:    stats.NewRate(30 * time.Second),
	}
	f.cond = sync.NewCond(&f.mu)
	for name := range cfg.Tenants {
		f.tenantLocked(name) // declared tenants are visible from the start
	}
	f.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go f.worker()
	}
	return f
}

// tenantLocked returns (creating if needed) the tenant's state.
func (f *Fair) tenantLocked(name string) *tenant {
	if t, ok := f.tenants[name]; ok {
		return t
	}
	t := &tenant{
		name:       name,
		weight:     1,
		maxQueue:   f.cfg.MaxQueuePerTenant,
		maxRunning: f.cfg.MaxRunningPerTenant,
	}
	if tc, ok := f.cfg.Tenants[name]; ok {
		t.declared = true
		if tc.Weight > 0 {
			t.weight = tc.Weight
		}
		if tc.MaxQueue > 0 {
			t.maxQueue = tc.MaxQueue
		}
		if tc.MaxRunning > 0 {
			t.maxRunning = tc.MaxRunning
		}
	}
	f.tenants[name] = t
	return t
}

// pruneLocked drops an undeclared tenant once it is fully idle, so
// arbitrary X-Tenant values cannot grow the map without bound.
func (f *Fair) pruneLocked(t *tenant) {
	if !t.declared && t.queuedLen() == 0 && t.running == 0 {
		delete(f.tenants, t.name)
	}
}

// pickLocked selects the dispatchable tenant with the smallest virtual
// finish tag (ties broken by name for determinism), or nil when no
// tenant has queued work under its concurrency quota.
func (f *Fair) pickLocked() *tenant {
	var best *tenant
	for _, t := range f.tenants {
		if t.queuedLen() == 0 || t.running >= t.maxRunning {
			continue
		}
		if best == nil || t.vfinish < best.vfinish ||
			(t.vfinish == best.vfinish && t.name < best.name) {
			best = t
		}
	}
	return best
}

func (f *Fair) worker() {
	defer f.wg.Done()
	f.mu.Lock()
	for {
		t := f.pickLocked()
		if t == nil {
			if f.closed && f.queued == 0 {
				f.mu.Unlock()
				return
			}
			f.cond.Wait()
			continue
		}
		task := t.pop()
		f.queued--
		t.running++
		f.running++
		start := math.Max(f.vtime, t.vfinish)
		t.vfinish = start + 1/t.weight
		f.vtime = start
		f.mu.Unlock()

		task(f.baseCtx)

		f.rate.Observe(1)
		f.mu.Lock()
		t.running--
		f.running--
		f.pruneLocked(t)
		// A finished task can unblock tenants held at their concurrency
		// quota as well as idle workers; wake everyone and let pick sort
		// it out.
		f.cond.Broadcast()
	}
}

// Submit enqueues task for the tenant at the given class.  It returns
// *Rejected when admission control refuses the submission and
// ErrClosed after Drain has begun.
func (f *Fair) Submit(tenantName string, class Class, task Task) error {
	if tenantName == "" {
		tenantName = DefaultTenant
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.cfg.MaxQueueTotal > 0 && f.queued >= f.cfg.MaxQueueTotal {
		return &Rejected{
			Reason:     fmt.Sprintf("global backlog full (%d queued)", f.queued),
			RetryAfter: f.retryAfterLocked(nil),
		}
	}
	t := f.tenantLocked(tenantName)
	if t.queuedLen() >= t.maxQueue {
		t.rejected++
		return &Rejected{
			Tenant:     tenantName,
			Reason:     fmt.Sprintf("tenant queue full (%d queued, quota %d)", t.queuedLen(), t.maxQueue),
			RetryAfter: f.retryAfterLocked(t),
		}
	}
	t.queues[class] = append(t.queues[class], task)
	f.queued++
	f.cond.Signal()
	return nil
}

// Resubmit enqueues the task of an already-admitted job without quota
// checks; only ErrClosed is possible.  The HTTP layer uses it when a
// coalesced follower is promoted after its leader aborted: the job was
// accepted (202) when it attached, so back-pressure at promotion time
// must not turn into a terminal failure.  The global and per-tenant
// bounds are deliberately skipped — promotions are bounded by the
// cache's per-flight follower cap.
func (f *Fair) Resubmit(tenantName string, class Class, task Task) error {
	if tenantName == "" {
		tenantName = DefaultTenant
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	t := f.tenantLocked(tenantName)
	t.queues[class] = append(t.queues[class], task)
	f.queued++
	f.cond.Signal()
	return nil
}

// Admit reports whether a submission for tenant would currently be
// admitted, without queueing anything.  The HTTP layer calls it before
// the per-request heavy lifting (building the input graph).  It is
// advisory: quotas may change between Admit and Submit, which remains
// the authoritative check.
func (f *Fair) Admit(tenantName string) error {
	if tenantName == "" {
		tenantName = DefaultTenant
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.cfg.MaxQueueTotal > 0 && f.queued >= f.cfg.MaxQueueTotal {
		return &Rejected{Reason: "global backlog full", RetryAfter: f.retryAfterLocked(nil)}
	}
	t, ok := f.tenants[tenantName]
	if !ok {
		return nil // a fresh tenant always has quota
	}
	if t.queuedLen() >= t.maxQueue {
		// An Admit refusal is a real rejection the caller surfaces as
		// 429, so it counts in the tenant's gauge like a Submit one.
		t.rejected++
		return &Rejected{
			Tenant:     tenantName,
			Reason:     "tenant queue full",
			RetryAfter: f.retryAfterLocked(t),
		}
	}
	return nil
}

// retryAfterLocked estimates when the rejected tenant (or, for t ==
// nil, any tenant blocked on the global backlog) is likely to find
// queue room.  Admission needs exactly ONE slot to free — the next
// dispatch from the full queue — so the estimate is one job interval
// at the tenant's weighted share of the observed global service rate,
// not the time to drain the whole queue (which would over-throttle
// compliant clients by a factor of the queue depth).
func (f *Fair) retryAfterLocked(t *tenant) time.Duration {
	rate := f.rate.PerSecond()
	if rate <= 0 {
		return time.Second
	}
	if t != nil {
		var weights float64
		for _, o := range f.tenants {
			if o.queuedLen() > 0 || o.running > 0 || o == t {
				weights += o.weight
			}
		}
		if weights > 0 {
			rate *= t.weight / weights
		}
	}
	if rate <= 0 {
		return time.Second
	}
	return clampRetry(time.Duration(float64(time.Second) / rate))
}

// Depth returns the number of queued (not yet running) tasks.
func (f *Fair) Depth() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queued
}

// Running returns the number of tasks currently executing.
func (f *Fair) Running() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(f.running)
}

// Workers returns the worker count.
func (f *Fair) Workers() int { return f.cfg.Workers }

// Tenants returns per-tenant gauges for tenants with live state.
func (f *Fair) Tenants() []TenantStat {
	f.mu.Lock()
	out := make([]TenantStat, 0, len(f.tenants))
	for _, t := range f.tenants {
		out = append(out, TenantStat{
			Name:     t.name,
			Weight:   t.weight,
			Queued:   t.queuedLen(),
			Running:  t.running,
			Rejected: t.rejected,
		})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Drain stops intake, runs the remaining queue, and waits for queued
// and running tasks to finish.  If ctx expires first the base context
// is cancelled — telling in-flight tasks to abort — and Drain waits
// for the workers to exit before returning ctx's error.  Idempotent.
func (f *Fair) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()

	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		f.cancel()
		return nil
	case <-ctx.Done():
		f.cancel()
		// Queued tasks still dispatch (with a cancelled base context,
		// so they abort promptly); wake any waiting workers to finish
		// the drain.
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// ParseTenantSpec parses the -tenants flag syntax:
//
//	name:weight[:maxqueue[:maxrunning]][,name:weight...]
//
// e.g. "gold:4,free:1:8:2".  Weight must be positive; quotas must be
// non-negative (0 keeps the scheduler default).
func ParseTenantSpec(spec string) (map[string]TenantConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]TenantConfig)
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
			return nil, fmt.Errorf("sched: tenant entry %q: want name:weight[:maxqueue[:maxrunning]]", entry)
		}
		name := parts[0]
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("sched: tenant %q declared twice", name)
		}
		weight, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || weight <= 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
			return nil, fmt.Errorf("sched: tenant %q: weight %q must be a positive number", name, parts[1])
		}
		tc := TenantConfig{Weight: weight}
		if len(parts) > 2 {
			if tc.MaxQueue, err = strconv.Atoi(parts[2]); err != nil || tc.MaxQueue < 0 {
				return nil, fmt.Errorf("sched: tenant %q: maxqueue %q must be a non-negative integer", name, parts[2])
			}
		}
		if len(parts) > 3 {
			if tc.MaxRunning, err = strconv.Atoi(parts[3]); err != nil || tc.MaxRunning < 0 {
				return nil, fmt.Errorf("sched: tenant %q: maxrunning %q must be a non-negative integer", name, parts[3])
			}
		}
		out[name] = tc
	}
	return out, nil
}
