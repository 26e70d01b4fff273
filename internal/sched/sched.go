// Package sched is eulerd's multi-tenant scheduling subsystem: the path
// between the HTTP layer and the engine workers.  It partitions serving
// capacity the same way the paper partitions compute — explicitly and
// fairly — instead of letting one flooding tenant starve everyone
// behind a single FIFO.
//
// Fair is the scheduler: per-tenant weighted fair queueing (start-time
// fair queueing over job counts) with interactive/batch priority classes
// inside each tenant, per-tenant concurrency and queue-depth quotas, a
// global backlog cap, and admission control that rejects early with a
// Retry-After hint computed from the observed service rate.
//
// The package also provides the content-addressed result layer
// (Fingerprint, ResultCache): a fingerprint over the input's vertex
// count, its edge multiset (a keyed multiset hash, one pass, no sort)
// and the solve options, used to coalesce in-flight duplicate
// submissions onto one execution and to serve completed circuits from
// a bounded, byte-budgeted LRU backed by spill.DiskStore.
package sched

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Task is one unit of work.  The context is the scheduler's base
// context; it is cancelled when a drain deadline expires, so tasks must
// observe it to shut down promptly.
type Task func(ctx context.Context)

// Class is a submission's priority class.  Within a tenant, interactive
// work is always dispatched before batch work; across tenants the fair
// scheduler arbitrates purely by tenant weight, so one tenant marking
// everything interactive cannot crowd out its neighbours.
type Class int

// Priority classes.
const (
	// Batch is the default class: throughput-oriented work.
	Batch Class = iota
	// Interactive is latency-sensitive work, served before the same
	// tenant's batch backlog.
	Interactive

	numClasses
)

// String returns the wire name of the class.
func (c Class) String() string {
	if c == Interactive {
		return "interactive"
	}
	return "batch"
}

// ParseClass maps the wire name of a priority class; "" means Batch.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "batch":
		return Batch, nil
	case "interactive":
		return Interactive, nil
	}
	return 0, fmt.Errorf("unknown class %q (want interactive or batch)", s)
}

// DefaultTenant is the tenant charged for requests that carry no
// identity.
const DefaultTenant = "default"

// ErrClosed is returned by Submit after Drain has begun.
var ErrClosed = errors.New("sched: scheduler closed")

// Rejected is the admission-control refusal: the submission was not
// queued and the caller should surface 429 with the Retry-After hint.
type Rejected struct {
	// Tenant is the tenant that was over quota (empty for a global
	// backlog rejection).
	Tenant string
	// Reason is a short human-readable cause.
	Reason string
	// RetryAfter estimates when a retry is likely to be admitted,
	// derived from the observed service rate and the rejected tenant's
	// queue depth.  Always at least a second.
	RetryAfter time.Duration
}

// Error implements error.
func (r *Rejected) Error() string {
	if r.Tenant == "" {
		return fmt.Sprintf("sched: rejected: %s (retry after %s)", r.Reason, r.RetryAfter)
	}
	return fmt.Sprintf("sched: tenant %q rejected: %s (retry after %s)", r.Tenant, r.Reason, r.RetryAfter)
}

// TenantStat is one tenant's live gauge set, exported via /v1/metrics.
// These are gauges over tenants with live scheduler state: undeclared
// tenants are pruned (counters included) once fully idle, so arbitrary
// X-Tenant values cannot grow server memory without bound — scrapers
// wanting monotonic rejection totals should use the service-level
// jobs_rejected counter, and tenants that must stay visible while idle
// should be declared via FairConfig.Tenants / the -tenants flag.
type TenantStat struct {
	Name     string
	Weight   float64
	Queued   int
	Running  int
	Rejected int64
}

// clampRetry bounds a Retry-After estimate to [1s, 60s] and rounds it
// up to whole seconds, the resolution of the HTTP header.
func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > time.Minute {
		return time.Minute
	}
	return ((d + time.Second - 1) / time.Second) * time.Second
}
