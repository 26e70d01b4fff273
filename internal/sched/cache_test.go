package sched

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// frameSource is an in-memory CircuitSource for tests.  The cache
// treats frames as opaque, so any bytes do; these are NDJSON-shaped
// lines like the ones the job sink stores.
type frameSource struct {
	steps  int64
	frames [][]byte
}

func (f frameSource) Steps() int64 { return f.steps }
func (f frameSource) IterateBatches(fn func([]byte) error) error {
	for _, frame := range f.frames {
		if err := fn(frame); err != nil {
			return err
		}
	}
	return nil
}

// size is the total frame payload, the bytes an entry charges against
// the cache budget.
func (f frameSource) size() int64 {
	var n int64
	for _, frame := range f.frames {
		n += int64(len(frame))
	}
	return n
}

// framed renders an n-step circuit into frames of per lines, the last
// one partial when per does not divide n.
func framed(n int, salt int64, per int) frameSource {
	src := frameSource{steps: int64(n)}
	var frame []byte
	for i := 0; i < n; i++ {
		frame = fmt.Appendf(frame, "{\"edge\":%d,\"from\":%d,\"to\":%d}\n", i, salt+int64(i), salt+int64(i)+1)
		if (i+1)%per == 0 || i == n-1 {
			src.frames = append(src.frames, frame)
			frame = nil
		}
	}
	return src
}

func circuit(n int, salt int64) frameSource { return framed(n, salt, 4096) }

func newTestCache(t *testing.T, maxBytes int64) *ResultCache {
	t.Helper()
	c, err := NewResultCache(filepath.Join(t.TempDir(), "cache.log"), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func fpOf(b byte) Fingerprint {
	var fp Fingerprint
	fp[0] = b
	return fp
}

func readAll(t *testing.T, r *Reader) [][]byte {
	t.Helper()
	var out [][]byte
	if err := r.IterateBatches(func(frame []byte) error {
		out = append(out, frame)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameFrames reports whether a reader replayed exactly the source's
// frames, byte for byte and frame for frame.
func sameFrames(got [][]byte, src frameSource) bool {
	if len(got) != len(src.frames) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], src.frames[i]) {
			return false
		}
	}
	return true
}

func TestCacheMissCommitHit(t *testing.T) {
	c := newTestCache(t, 1<<20)
	src := circuit(10_000, 0) // spans multiple frames
	out, r, lease := c.Acquire(fpOf(1), nil)
	if out != OutcomeLead || r != nil || lease == nil {
		t.Fatalf("first acquire = %v, want lead", out)
	}
	if err := lease.Commit(src); err != nil {
		t.Fatal(err)
	}
	out, r, _ = c.Acquire(fpOf(1), nil)
	if out != OutcomeHit || r == nil {
		t.Fatalf("second acquire = %v, want hit", out)
	}
	if r.Steps() != src.Steps() {
		t.Fatalf("cached steps %d, want %d", r.Steps(), src.Steps())
	}
	if !sameFrames(readAll(t, r), src) {
		t.Fatal("cached circuit differs from the committed one")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Inflight != 0 || st.LiveBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheCoalesce(t *testing.T) {
	c := newTestCache(t, 1<<20)
	src := circuit(100, 0)
	_, _, lease := c.Acquire(fpOf(2), nil)

	got := make(chan *Reader, 2)
	for i := 0; i < 2; i++ {
		out, _, _ := c.Acquire(fpOf(2), &Follower{OnReady: func(r *Reader, promoted *Lease) {
			if promoted != nil {
				t.Error("follower promoted on a committing leader")
			}
			got <- r
		}})
		if out != OutcomeCoalesced {
			t.Fatalf("duplicate acquire = %v, want coalesced", out)
		}
	}
	if err := lease.Commit(src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := <-got
		if r == nil || !sameFrames(readAll(t, r), src) {
			t.Fatal("follower did not receive the committed circuit")
		}
	}
	if st := c.Stats(); st.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", st.Coalesced)
	}
}

// TestCacheAbortPromotionChain: an aborting leader promotes followers
// one at a time; a promoted follower that aborts passes leadership on,
// and the last abort clears the in-flight entry.
func TestCacheAbortPromotionChain(t *testing.T) {
	c := newTestCache(t, 1<<20)
	_, _, lease := c.Acquire(fpOf(3), nil)
	var promotions int
	mk := func() *Follower {
		return &Follower{OnReady: func(r *Reader, promoted *Lease) {
			if r != nil || promoted == nil {
				t.Error("follower expected promotion, got a reader")
				return
			}
			promotions++
			promoted.Abort()
		}}
	}
	c.Acquire(fpOf(3), mk())
	c.Acquire(fpOf(3), mk())
	lease.Abort()
	if promotions != 2 {
		t.Fatalf("%d promotions, want 2", promotions)
	}
	if out, _, l := c.Acquire(fpOf(3), nil); out != OutcomeLead {
		t.Fatalf("after full abort chain acquire = %v, want lead", out)
	} else {
		l.Abort()
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight = %d after the abort chain, want 0 (no leaked flights)", st.Inflight)
	}
}

// TestCachePromotedCommitServesRemainingFollowers: when the promoted
// follower commits, the still-waiting followers get the circuit.
func TestCachePromotedCommitServesRemainingFollowers(t *testing.T) {
	c := newTestCache(t, 1<<20)
	src := circuit(50, 5)
	_, _, lease := c.Acquire(fpOf(4), nil)

	var served *Reader
	c.Acquire(fpOf(4), &Follower{OnReady: func(r *Reader, promoted *Lease) {
		if promoted != nil {
			if err := promoted.Commit(src); err != nil {
				t.Error(err)
			}
			return
		}
		t.Error("first follower expected promotion")
	}})
	c.Acquire(fpOf(4), &Follower{OnReady: func(r *Reader, promoted *Lease) {
		served = r
	}})
	lease.Abort()
	if served == nil || !sameFrames(readAll(t, served), src) {
		t.Fatal("second follower was not served by the promoted leader's commit")
	}
	if out, r, _ := c.Acquire(fpOf(4), nil); out != OutcomeHit || r == nil {
		t.Fatalf("post-promotion acquire = %v, want hit", out)
	}
}

// TestCacheEvictionKeepsReadersAlive: the byte budget evicts the LRU
// entry, but a Reader taken before eviction still replays its circuit.
func TestCacheEvictionKeepsReadersAlive(t *testing.T) {
	srcA, srcB := circuit(3000, 0), circuit(3000, 9)
	// Budget fits one entry but not two.
	c := newTestCache(t, srcA.size()+64)

	_, _, lease := c.Acquire(fpOf(10), nil)
	if err := lease.Commit(srcA); err != nil {
		t.Fatal(err)
	}
	_, rA, _ := c.Acquire(fpOf(10), nil)

	_, _, lease = c.Acquire(fpOf(11), nil)
	if err := lease.Commit(srcB); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats after over-budget commit = %+v", st)
	}
	if out, _, l := c.Acquire(fpOf(10), nil); out != OutcomeLead {
		t.Fatalf("evicted entry acquire = %v, want lead", out)
	} else {
		l.Abort()
	}
	if !sameFrames(readAll(t, rA), srcA) {
		t.Fatal("pre-eviction reader lost its circuit")
	}
	if st := c.Stats(); st.LiveBytes > st.MaxBytes {
		t.Fatalf("live bytes %d exceed budget %d", st.LiveBytes, st.MaxBytes)
	}
}

// TestCacheHitRefreshesLRU: touching an entry protects it from the
// next eviction round.
func TestCacheHitRefreshesLRU(t *testing.T) {
	srcA, srcB, srcC := circuit(3000, 0), circuit(3000, 1), circuit(3000, 2)
	c := newTestCache(t, 2*srcA.size()+128) // fits two entries

	commit := func(fp Fingerprint, src frameSource) {
		_, _, lease := c.Acquire(fp, nil)
		if err := lease.Commit(src); err != nil {
			t.Fatal(err)
		}
	}
	commit(fpOf(20), srcA)
	commit(fpOf(21), srcB)
	// Touch A so B becomes the LRU victim.
	if out, _, _ := c.Acquire(fpOf(20), nil); out != OutcomeHit {
		t.Fatalf("touch = %v, want hit", out)
	}
	commit(fpOf(22), srcC)
	if out, _, _ := c.Acquire(fpOf(20), nil); out != OutcomeHit {
		t.Fatal("recently touched entry was evicted")
	}
	if out, _, l := c.Acquire(fpOf(21), nil); out != OutcomeLead {
		t.Fatal("LRU entry survived over budget")
	} else {
		l.Abort()
	}
}

// TestCacheOversizedResultNotIndexed: a circuit bigger than the whole
// budget is not cached, but waiting followers are still served from
// the written records.
func TestCacheOversizedResultNotIndexed(t *testing.T) {
	c := newTestCache(t, 64) // tiny budget
	src := circuit(5000, 0)
	_, _, lease := c.Acquire(fpOf(30), nil)
	var served *Reader
	c.Acquire(fpOf(30), &Follower{OnReady: func(r *Reader, promoted *Lease) { served = r }})
	if err := lease.Commit(src); err != nil {
		t.Fatal(err)
	}
	if served == nil || !sameFrames(readAll(t, served), src) {
		t.Fatal("follower not served for an oversized result")
	}
	st := c.Stats()
	if st.Entries != 0 || st.LiveBytes != 0 {
		t.Fatalf("oversized result was indexed: %+v", st)
	}
}

// TestCacheCommitFrameCopyFastPath: a commit copies the source's
// frames verbatim, odd frame sizes included, and a hit replays exactly
// the committed bytes: the cache never re-frames or looks inside them.
func TestCacheCommitFrameCopyFastPath(t *testing.T) {
	c := newTestCache(t, 1<<20)
	src := framed(10_000, 4, 777) // 13 full frames and a partial one
	_, _, lease := c.Acquire(fpOf(60), nil)
	if err := lease.Commit(src); err != nil {
		t.Fatal(err)
	}
	out, r, _ := c.Acquire(fpOf(60), nil)
	if out != OutcomeHit || r.Steps() != src.Steps() {
		t.Fatalf("acquire = %v steps %d", out, r.Steps())
	}
	if !sameFrames(readAll(t, r), src) {
		t.Fatal("cache hit's frames differ from the committed frames")
	}
}

// TestCacheFollowerOverflow: the per-flight follower bound turns the
// N+1st duplicate into an overflow instead of unbounded accumulation;
// the admitted followers still resolve normally.
func TestCacheFollowerOverflow(t *testing.T) {
	c := newTestCache(t, 1<<20)
	c.MaxFollowers = 2
	src := circuit(50, 3)
	_, _, lease := c.Acquire(fpOf(50), nil)
	served := 0
	for i := 0; i < 2; i++ {
		out, _, _ := c.Acquire(fpOf(50), &Follower{OnReady: func(r *Reader, _ *Lease) {
			if r != nil {
				served++
			}
		}})
		if out != OutcomeCoalesced {
			t.Fatalf("follower %d = %v, want coalesced", i, out)
		}
	}
	out, r, l := c.Acquire(fpOf(50), &Follower{OnReady: func(*Reader, *Lease) { t.Error("overflowed follower must not fire") }})
	if out != OutcomeOverflow || r != nil || l != nil {
		t.Fatalf("over-cap acquire = %v, want overflow", out)
	}
	if err := lease.Commit(src); err != nil {
		t.Fatal(err)
	}
	if served != 2 {
		t.Fatalf("%d followers served, want 2", served)
	}
	if st := c.Stats(); st.Overflows != 1 || st.Coalesced != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// After the commit the fingerprint hits normally again.
	if out, _, _ := c.Acquire(fpOf(50), nil); out != OutcomeHit {
		t.Fatalf("post-commit acquire = %v, want hit", out)
	}
}

// TestCacheOversizedCommitStopsEarly: with no followers waiting, a
// circuit that cannot fit the budget stops being copied after the
// first over-budget frame instead of growing the append-only log by
// the full circuit; the leader sees a clean (nil) commit.
func TestCacheOversizedCommitStopsEarly(t *testing.T) {
	c := newTestCache(t, 64)
	src := circuit(20_000, 0) // several frames, far over budget
	full := src.size()
	_, _, lease := c.Acquire(fpOf(70), nil)
	if err := lease.Commit(src); err != nil {
		t.Fatalf("oversized commit must not error the leader: %v", err)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Inflight != 0 {
		t.Fatalf("stats = %+v, want no entry and no leaked flight", st)
	}
	if st.LogBytes >= full {
		t.Fatalf("log grew by %d for an uncacheable circuit (full copy is %d); the copy must stop early", st.LogBytes, full)
	}
	if out, _, l := c.Acquire(fpOf(70), nil); out != OutcomeLead {
		t.Fatalf("post-oversize acquire = %v, want lead", out)
	} else {
		l.Abort()
	}
}

func TestCacheClosedBypasses(t *testing.T) {
	c := newTestCache(t, 1<<20)
	c.Close()
	if out, r, l := c.Acquire(fpOf(40), nil); out != OutcomeBypass || r != nil || l != nil {
		t.Fatalf("acquire on closed cache = %v", out)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCacheRejectsZeroBudget(t *testing.T) {
	if _, err := NewResultCache(filepath.Join(t.TempDir(), "c.log"), 0); err == nil {
		t.Fatal("zero byte budget accepted")
	}
}
