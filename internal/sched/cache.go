package sched

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"repro/internal/spill"
)

// errCommitOversize aborts a commit's frame copy early: the circuit
// exceeds the whole cache budget and nobody is waiting on the frames.
var errCommitOversize = errors.New("sched: circuit exceeds the cache budget")

// CircuitSource is a readable completed circuit stored as frames: the
// job layer's disk sink and the cache's own Reader both expose one.
// A frame is a run of the job kind's NDJSON lines, exactly the bytes
// the HTTP circuit endpoint serves, so everything that moves a circuit
// (cache commit, egress) copies frames without looking inside them.
type CircuitSource interface {
	// Steps returns the circuit length.
	Steps() int64
	// IterateBatches replays the frames in circuit order.
	IterateBatches(fn func(frame []byte) error) error
}

// Outcome classifies an Acquire.
type Outcome int

// Acquire outcomes.
const (
	// OutcomeLead: no entry exists; the caller must execute and then
	// Commit or Abort the returned lease.
	OutcomeLead Outcome = iota
	// OutcomeHit: a completed circuit was returned.
	OutcomeHit
	// OutcomeCoalesced: an identical execution is in flight; the
	// follower's OnReady will fire when it resolves.
	OutcomeCoalesced
	// OutcomeOverflow: an identical execution is in flight but its
	// follower list is at MaxFollowers; the caller should reject the
	// submission (it would otherwise accumulate without any admission
	// bound, since followers consume no queue quota).
	OutcomeOverflow
	// OutcomeBypass: the cache is closed; run without it.
	OutcomeBypass
)

// DefaultMaxFollowers bounds how many duplicates may ride one in-flight
// execution; beyond it Acquire returns OutcomeOverflow.
const DefaultMaxFollowers = 1024

// Follower is a duplicate submission waiting on an in-flight
// execution.
type Follower struct {
	// OnReady fires exactly once, off the leader's completion path:
	// with a Reader when the leader committed, or with a Lease when the
	// leader aborted and this follower is promoted to run the
	// execution itself (a promoted follower that cannot run — e.g. its
	// job was cancelled — must Abort the lease so the next follower is
	// promoted in turn).
	OnReady func(r *Reader, promoted *Lease)
}

// Reader is an immutable view of one cached circuit.  It stays
// readable after the entry is evicted from the index (the backing log
// is append-only), so holders never race eviction.
type Reader struct {
	store *spill.DiskStore
	recs  []int64
	steps int64
}

// Steps implements CircuitSource.
func (r *Reader) Steps() int64 { return r.steps }

// IterateBatches implements CircuitSource.
func (r *Reader) IterateBatches(fn func(frame []byte) error) error {
	for _, rec := range r.recs {
		data, err := r.store.Get(rec)
		if err != nil {
			return fmt.Errorf("sched: cached circuit record %d: %w", rec, err)
		}
		if err := fn(data); err != nil {
			return err
		}
	}
	return nil
}

// Lease is the exclusive right (and duty) to resolve one in-flight
// fingerprint: exactly one of Commit or Abort must be called.
type Lease struct {
	c  *ResultCache
	fp Fingerprint
}

// centry is one completed cache entry.
type centry struct {
	fp    Fingerprint
	recs  []int64
	steps int64
	bytes int64
	elem  *list.Element
}

// flight is one in-flight execution with its waiting followers.
type flight struct {
	followers []*Follower
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Coalesced int64
	Evictions int64
	Overflows int64
	Entries   int64
	LiveBytes int64
	MaxBytes  int64
	Inflight  int64
	// LogBytes is the total size of the append-only backing log,
	// including evicted (dead) payloads: the cache's true disk
	// footprint, reclaimed only when the cache is closed and its file
	// removed.  MaxBytes bounds LiveBytes, not this.
	LogBytes int64
}

// ResultCache is the content-addressed result layer: completed
// circuits in a byte-budgeted LRU whose payloads live in an
// append-only spill.DiskStore, plus the in-flight table that coalesces
// duplicate submissions onto one execution.
//
// The cache is keyed purely by content, NOT by tenant: a circuit is a
// deterministic function of its input graph and solve options, so any
// tenant submitting the same input receives the same bytes it would
// have computed itself.  Deployments that must not reveal whether an
// identical input was recently computed by someone else (an instant
// "done" is observable) should scope the fingerprint per tenant at the
// call site or disable the cache.
//
// Eviction removes an entry from the index (its bytes stop counting
// against the budget and its fingerprint stops hitting) but never
// invalidates outstanding Readers: the disk log is append-only and is
// only reclaimed when the cache is closed and its file removed.
type ResultCache struct {
	// MaxFollowers caps the duplicates riding one in-flight execution
	// (default DefaultMaxFollowers).  It is set before the cache is
	// shared and must not be changed while serving.
	MaxFollowers int

	mu        sync.Mutex
	store     *spill.DiskStore
	maxBytes  int64
	entries   map[Fingerprint]*centry
	lru       *list.List // front = least recently used
	inflight  map[Fingerprint]*flight
	liveBytes int64
	nextRec   int64
	closed    bool

	hits, misses, coalesced, evictions, overflows int64
}

// NewResultCache creates a cache whose payload log lives at path and
// whose live entries are bounded by maxBytes (minimum 1).
func NewResultCache(path string, maxBytes int64) (*ResultCache, error) {
	if maxBytes < 1 {
		return nil, fmt.Errorf("sched: cache byte budget %d < 1", maxBytes)
	}
	ds, err := spill.NewDiskStore(path)
	if err != nil {
		return nil, fmt.Errorf("sched: creating cache store: %w", err)
	}
	return &ResultCache{
		MaxFollowers: DefaultMaxFollowers,
		store:        ds,
		maxBytes:     maxBytes,
		entries:      make(map[Fingerprint]*centry),
		lru:          list.New(),
		inflight:     make(map[Fingerprint]*flight),
	}, nil
}

// Acquire resolves fp against the cache: a completed entry is a Hit
// (Reader returned), an in-flight execution is Coalesced (follower
// registered; must be non-nil), and a miss makes the caller the leader
// (Lease returned).
func (c *ResultCache) Acquire(fp Fingerprint, f *Follower) (Outcome, *Reader, *Lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return OutcomeBypass, nil, nil
	}
	if e, ok := c.entries[fp]; ok {
		c.hits++
		c.lru.MoveToBack(e.elem)
		return OutcomeHit, &Reader{store: c.store, recs: e.recs, steps: e.steps}, nil
	}
	if fl, ok := c.inflight[fp]; ok {
		if len(fl.followers) >= c.MaxFollowers {
			c.overflows++
			return OutcomeOverflow, nil, nil
		}
		c.coalesced++
		fl.followers = append(fl.followers, f)
		return OutcomeCoalesced, nil, nil
	}
	c.misses++
	c.inflight[fp] = &flight{}
	return OutcomeLead, nil, &Lease{c: c, fp: fp}
}

// Stats returns a snapshot of the counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Overflows: c.overflows,
		Entries:   int64(len(c.entries)),
		LiveBytes: c.liveBytes,
		MaxBytes:  c.maxBytes,
		Inflight:  int64(len(c.inflight)),
		LogBytes:  c.store.BytesWritten(),
	}
}

// Close flushes and closes the payload log.  Outstanding leases
// resolve as aborts; subsequent Acquires bypass.
func (c *ResultCache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.store.Close()
}

// Commit stores the leader's completed circuit, publishes the entry
// (unless it alone exceeds the byte budget), and hands every waiting
// follower a Reader.  On error the lease degrades to an Abort — the
// next follower, if any, is promoted to re-execute — and the leader's
// own result is unaffected.
func (l *Lease) Commit(src CircuitSource) error {
	c := l.c

	// Persist the frames outside the lock; only record-ID reservation
	// and index publication serialise.
	var (
		recs  []int64
		bytes int64
	)
	put := func(frame []byte) error {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return fmt.Errorf("sched: cache closed during commit")
		}
		if bytes+int64(len(frame)) > c.maxBytes {
			// The circuit will never fit the budget, so it can never be
			// published as an entry.  Unless followers are waiting on
			// these frames, stop copying now instead of growing the
			// append-only log by a full circuit for nothing.
			fl := c.inflight[l.fp]
			if fl == nil || len(fl.followers) == 0 {
				c.mu.Unlock()
				return errCommitOversize
			}
		}
		rec := c.nextRec
		c.nextRec++
		c.mu.Unlock()
		if err := c.store.Put(rec, frame); err != nil {
			return err
		}
		recs = append(recs, rec)
		bytes += int64(len(frame))
		return nil
	}
	// The source's frames are already in the cache's format, so a
	// multi-million-step circuit moves log-to-log without a decode pass.
	err := src.IterateBatches(put)
	if errors.Is(err, errCommitOversize) {
		// Not a failure for the leader: the result simply cannot be
		// cached.  Abort clears the flight (and promotes a follower in
		// the unlikely case one attached after the early-out check —
		// it re-executes, since the frame copy here is incomplete).
		l.Abort()
		return nil
	}
	if err != nil {
		l.Abort()
		return fmt.Errorf("sched: caching circuit: %w", err)
	}

	steps := src.Steps()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		l.Abort()
		return fmt.Errorf("sched: cache closed during commit")
	}
	fl := c.inflight[l.fp]
	delete(c.inflight, l.fp)
	if bytes <= c.maxBytes {
		e := &centry{fp: l.fp, recs: recs, steps: steps, bytes: bytes}
		e.elem = c.lru.PushBack(e)
		c.entries[l.fp] = e
		c.liveBytes += bytes
		c.evictLocked()
	}
	c.mu.Unlock()

	if fl != nil && len(fl.followers) > 0 {
		r := &Reader{store: c.store, recs: recs, steps: steps}
		for _, f := range fl.followers {
			f.OnReady(r, nil)
		}
	}
	return nil
}

// Abort resolves the lease without a result.  The first waiting
// follower, if any, is promoted to leader and handed a fresh lease for
// the same fingerprint; the rest keep waiting on the new leader.
func (l *Lease) Abort() {
	c := l.c
	c.mu.Lock()
	fl := c.inflight[l.fp]
	var promoted *Follower
	if fl != nil {
		if len(fl.followers) > 0 {
			promoted = fl.followers[0]
			fl.followers = fl.followers[1:]
		} else {
			delete(c.inflight, l.fp)
		}
	}
	c.mu.Unlock()
	if promoted != nil {
		promoted.OnReady(nil, &Lease{c: c, fp: l.fp})
	}
}

// evictLocked drops least-recently-used entries until the live bytes
// fit the budget.
func (c *ResultCache) evictLocked() {
	for c.liveBytes > c.maxBytes && c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Front()).(*centry)
		delete(c.entries, e.fp)
		c.liveBytes -= e.bytes
		c.evictions++
	}
}
