// Package job holds the eulerd job model: the submission spec, the
// per-job state machine, and a bounded in-memory registry.  The engine
// (repro's euler facade) computes; this package only records lifecycle.
package job

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/euler"
	"repro/internal/sched"
)

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → done | failed | cancelled.  A queued
// job may go straight to cancelled without running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted circuit computation.  The immutable fields (ID,
// Spec, Dir, in) are set at creation; the mutable lifecycle fields are
// guarded by mu and read through Snapshot.
type Job struct {
	ID   string
	Spec Spec
	// Dir is the job's scratch directory (uploaded graph, circuit log,
	// and a paged solve's spill logs); it is removed when the job is
	// evicted.
	Dir string
	in  Input

	ctx    context.Context
	cancel context.CancelFunc

	// egress counts circuit response bytes streamed for this job,
	// accumulated lock-free by concurrent HTTP streams.
	egress atomic.Int64

	mu       sync.Mutex
	state    State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	steps    int64
	report   *euler.RunReport
	sink     *CircuitSink
	cached   sched.CircuitSource
	// seq is the store-assigned registration sequence number backing
	// the list endpoint's stable pagination tokens.
	seq int64
}

// Input is what a submission resolved about its job before acceptance.
type Input struct {
	// Tenant is the submitting tenant, for the list endpoint's filter.
	Tenant string
	// Fingerprint is the input's content address (hex), "" when the
	// server runs without a result cache; clients use it as a delta base.
	Fingerprint string
}

// New returns a queued job for spec with scratch directory dir.  Its
// creation time is now; it is registered by Store.Add.
func New(spec Spec, dir string, in Input) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{
		ID:      newID(),
		Spec:    spec,
		Dir:     dir,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		created: time.Now(),
		in:      in,
	}
}

// Context returns the job's cancellation context; the worker threads it
// through the streaming emit path so DELETE aborts the unroll.
func (j *Job) Context() context.Context { return j.ctx }

// Start moves the job from queued to running.  It returns false if the
// job is no longer queued (cancelled before a worker picked it up), in
// which case the worker must skip it.
func (j *Job) Start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// Finish records a successful run: the instrumentation report and the
// sink holding the streamed circuit.
func (j *Job) Finish(report *euler.RunReport, sink *CircuitSink) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.finished = time.Now()
	j.report = report
	j.sink = sink
	j.steps = sink.Steps()
}

// FinishCached completes a still-queued job straight from a cached or
// coalesced circuit, skipping the running state entirely.  It reports
// false — and stores nothing — if the job is no longer queued (e.g.
// cancelled while waiting on the leader).  The job's scratch directory
// (holding the saved upload body, when there is one) is released
// immediately: a cache-served job will never execute, so keeping the
// input until retention eviction would pin dead disk for every
// deduplicated upload.
func (j *Job) FinishCached(src sched.CircuitSource) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateDone
	j.finished = time.Now()
	j.cached = src
	j.steps = src.Steps()
	j.mu.Unlock()
	if j.Dir != "" {
		os.RemoveAll(j.Dir) // cleanup at eviction is a no-op on the missing dir
	}
	return true
}

// Fail records a failed run.  If the job's context was cancelled the
// failure is reclassified as a cancellation; the resulting state is
// returned so the caller can count it correctly.
func (j *Job) Fail(err error) State {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ctx.Err() != nil {
		j.state = StateCancelled
	} else {
		j.state = StateFailed
	}
	j.errMsg = err.Error()
	j.finished = time.Now()
	return j.state
}

// Cancel requests cancellation.  A queued job transitions to cancelled
// immediately (the worker will observe Start()==false and skip it,
// returning its slot to the pool); a running job has its context
// cancelled and transitions when the worker notices.  The first return
// is the state after the call; the second reports whether this call
// performed the queued→cancelled transition.
func (j *Job) Cancel() (State, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = time.Now()
		j.errMsg = "cancelled before running"
		return j.state, true
	}
	return j.state, false
}

// AddEgress records n bytes of circuit response streamed for this job.
func (j *Job) AddEgress(n int64) { j.egress.Add(n) }

// EgressBytes returns the circuit response bytes streamed so far.
func (j *Job) EgressBytes() int64 { return j.egress.Load() }

// Circuit returns the circuit source of a successfully completed job.
// For sink-backed jobs a reader reference is already held, so a
// concurrent eviction cannot close the sink before the caller starts
// reading; the caller must invoke the returned release function when
// done.  Cache-backed sources need no reference (the cache log is
// append-only), so their release is a no-op.
func (j *Job) Circuit() (sched.CircuitSource, func(), bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, nil, false
	}
	if j.cached != nil {
		return j.cached, func() {}, true
	}
	if j.sink == nil || !j.sink.Acquire() {
		return nil, nil, false
	}
	return j.sink, j.sink.Release, true
}

// cleanup releases the job's disk footprint.  Called by the store on
// eviction, after the job left the registry.
func (j *Job) cleanup() {
	j.mu.Lock()
	sink := j.sink
	j.sink = nil
	j.mu.Unlock()
	if sink != nil {
		sink.Close()
	}
	if j.Dir != "" {
		os.RemoveAll(j.Dir)
	}
}

// Snapshot is a point-in-time copy of a job's observable state, shaped
// for the HTTP API.
type Snapshot struct {
	ID       string           `json:"id"`
	State    State            `json:"state"`
	Spec     Spec             `json:"spec"`
	Error    string           `json:"error,omitempty"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
	Steps    int64            `json:"steps,omitempty"`
	Report   *euler.RunReport `json:"report,omitempty"`
	// Attempts and Degraded mirror the report's cluster execution
	// fields at the top level so clients polling job status can see
	// retry and fallback outcomes without digging into the report.
	Attempts int  `json:"attempts,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// EgressBytes counts circuit response bytes streamed for this job
	// across all GET /circuit requests so far.
	EgressBytes int64 `json:"egress_bytes,omitempty"`
	// Tenant is the submitting tenant (empty when tenancy is off).
	Tenant string `json:"tenant,omitempty"`
	// Fingerprint is the job's content address in hex, usable as the
	// base of a later delta submission.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Delta marks jobs submitted as an edge diff against a base, and
	// ReusedParts counts the merge-tree nodes replayed from the base's
	// retained state instead of re-toured.
	Delta       bool `json:"delta,omitempty"`
	ReusedParts int  `json:"reused_parts,omitempty"`
	// Seq backs the list endpoint's pagination tokens; it is not part
	// of the wire shape.
	Seq int64 `json:"-"`
}

// Snapshot returns a copy of the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:          j.ID,
		State:       j.state,
		Spec:        j.Spec,
		Error:       j.errMsg,
		Created:     j.created,
		Steps:       j.steps,
		Report:      j.report,
		EgressBytes: j.egress.Load(),
		Tenant:      j.in.Tenant,
		Fingerprint: j.in.Fingerprint,
		Delta:       j.Spec.IsDelta(),
		Seq:         j.seq,
	}
	if j.report != nil {
		s.Attempts = j.report.Attempts
		s.Degraded = j.report.Degraded
		s.ReusedParts = j.report.ReusedParts
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	return s
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Store is the in-memory job registry with bounded retention: terminal
// jobs beyond maxTerminal are evicted oldest-first and their scratch
// directories removed.  Queued and running jobs are never evicted.
type Store struct {
	mu          sync.Mutex
	jobs        map[string]*Job
	order       []*Job // insertion order, for retention scans
	maxTerminal int
	// nextSeq is the monotonic creation counter backing pagination
	// tokens; it never resets, so tokens stay stable across evictions.
	nextSeq int64
}

// NewStore returns a registry retaining at most maxTerminal finished
// jobs (minimum 1).
func NewStore(maxTerminal int) *Store {
	if maxTerminal < 1 {
		maxTerminal = 1
	}
	return &Store{jobs: make(map[string]*Job), maxTerminal: maxTerminal}
}

// Add registers j, evicting old terminal jobs if retention is exceeded.
func (s *Store) Add(j *Job) {
	s.mu.Lock()
	s.nextSeq++
	j.mu.Lock() // a leader's worker may already be reading j
	j.seq = s.nextSeq
	j.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	evicted := s.evictLocked()
	s.mu.Unlock()
	for _, e := range evicted {
		e.cleanup()
	}
}

// evictLocked removes the oldest terminal jobs beyond the retention
// bound and returns them for cleanup outside the lock.
func (s *Store) evictLocked() []*Job {
	terminal := 0
	for _, j := range s.order {
		if j.State().Terminal() {
			terminal++
		}
	}
	var evicted []*Job
	for i := 0; terminal > s.maxTerminal && i < len(s.order); {
		j := s.order[i]
		if !j.State().Terminal() {
			i++
			continue
		}
		delete(s.jobs, j.ID)
		s.order = append(s.order[:i], s.order[i+1:]...)
		evicted = append(evicted, j)
		terminal--
	}
	return evicted
}

// Get returns the job with the given ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns snapshots of all registered jobs, oldest first.
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Len returns the number of registered jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("job: reading random ID: %v", err))
	}
	return hex.EncodeToString(b[:])
}
