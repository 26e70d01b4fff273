package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drain drains a scheduler with a test-scoped deadline.
func drain(t *testing.T, s *Fair) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// gatedFair builds a single-worker Fair whose first task blocks until
// release is closed, so tests can stage queues deterministically.
func gatedFair(t *testing.T, cfg FairConfig) (*Fair, chan struct{}) {
	t.Helper()
	cfg.Workers = 1
	f := NewFair(cfg)
	release := make(chan struct{})
	if err := f.Submit("gate", Batch, func(context.Context) { <-release }); err != nil {
		t.Fatal(err)
	}
	// Wait until the gate task holds the worker.
	deadline := time.Now().Add(5 * time.Second)
	for f.Running() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("gate task never started")
		}
		time.Sleep(time.Millisecond)
	}
	return f, release
}

// TestFairInterleavesTenants: with one worker and two tenants of equal
// weight queued back-to-back, dispatch alternates between them instead
// of serving one tenant's whole backlog first.
func TestFairInterleavesTenants(t *testing.T) {
	f, release := gatedFair(t, FairConfig{})
	var mu sync.Mutex
	var order []string
	run := func(name string) Task {
		return func(context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.Submit("alice", Batch, run("alice")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.Submit("bob", Batch, run("bob")); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	drain(t, f)
	want := []string{"alice", "bob", "alice", "bob", "alice", "bob"}
	if len(order) != len(want) {
		t.Fatalf("ran %d tasks, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestFairWeights: a weight-3 tenant is dispatched three times as often
// as a weight-1 tenant while both stay backlogged.
func TestFairWeights(t *testing.T) {
	f, release := gatedFair(t, FairConfig{
		Tenants: map[string]TenantConfig{"gold": {Weight: 3}, "free": {Weight: 1}},
	})
	var mu sync.Mutex
	var order []string
	run := func(name string) Task {
		return func(context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	for i := 0; i < 6; i++ {
		if err := f.Submit("gold", Batch, run("gold")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := f.Submit("free", Batch, run("free")); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	drain(t, f)
	// In the first four dispatches, gold (weight 3) must get three
	// slots and free one.
	gold := 0
	for _, name := range order[:4] {
		if name == "gold" {
			gold++
		}
	}
	if gold != 3 {
		t.Fatalf("gold got %d of the first 4 slots, want 3 (order %v)", gold, order)
	}
}

// TestFairInteractiveBeforeBatch: within one tenant, interactive work
// queued after a batch backlog still dispatches first.
func TestFairInteractiveBeforeBatch(t *testing.T) {
	f, release := gatedFair(t, FairConfig{})
	var mu sync.Mutex
	var order []string
	run := func(name string) Task {
		return func(context.Context) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}
	for i := 0; i < 2; i++ {
		if err := f.Submit("t", Batch, run("batch")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Submit("t", Interactive, run("interactive")); err != nil {
		t.Fatal(err)
	}
	close(release)
	drain(t, f)
	if len(order) != 3 || order[0] != "interactive" {
		t.Fatalf("dispatch order %v, want interactive first", order)
	}
}

// TestFairQueueQuotaRejects: the per-tenant queue quota rejects with a
// Retry-After hint while other tenants keep their own quota.
func TestFairQueueQuotaRejects(t *testing.T) {
	f, release := gatedFair(t, FairConfig{MaxQueuePerTenant: 2})
	defer func() { close(release); drain(t, f) }()
	noop := func(context.Context) {}
	for i := 0; i < 2; i++ {
		if err := f.Submit("greedy", Batch, noop); err != nil {
			t.Fatal(err)
		}
	}
	err := f.Submit("greedy", Batch, noop)
	var rej *Rejected
	if !errors.As(err, &rej) {
		t.Fatalf("over-quota submit returned %v, want *Rejected", err)
	}
	if rej.Tenant != "greedy" || rej.RetryAfter < time.Second {
		t.Fatalf("rejection = %+v, want tenant greedy with RetryAfter >= 1s", rej)
	}
	if err := f.Admit("greedy"); err == nil {
		t.Fatal("Admit must refuse a tenant at quota")
	}
	// Another tenant is unaffected.
	if err := f.Submit("polite", Batch, noop); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if err := f.Admit("polite"); err != nil {
		t.Fatalf("Admit refused a tenant under quota: %v", err)
	}
	found := false
	for _, ts := range f.Tenants() {
		if ts.Name == "greedy" {
			found = true
			// One Submit rejection + one Admit refusal above.
			if ts.Rejected != 2 || ts.Queued != 2 {
				t.Fatalf("greedy stats = %+v", ts)
			}
		}
	}
	if !found {
		t.Fatal("greedy tenant missing from stats")
	}
}

// TestFairConcurrencyQuota: a tenant capped at 1 running job leaves the
// second worker to other tenants even with a deep backlog.
func TestFairConcurrencyQuota(t *testing.T) {
	f := NewFair(FairConfig{
		Workers: 2,
		Tenants: map[string]TenantConfig{"capped": {Weight: 1, MaxRunning: 1}},
	})
	var cappedPeak, cappedRunning atomic.Int64
	block := make(chan struct{})
	for i := 0; i < 4; i++ {
		err := f.Submit("capped", Batch, func(context.Context) {
			if n := cappedRunning.Add(1); n > cappedPeak.Load() {
				cappedPeak.Store(n)
			}
			<-block
			cappedRunning.Add(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	otherRan := make(chan struct{})
	if err := f.Submit("other", Batch, func(context.Context) { close(otherRan) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-otherRan:
	case <-time.After(5 * time.Second):
		t.Fatal("second worker never served the other tenant; concurrency quota not honoured")
	}
	close(block)
	drain(t, f)
	if cappedPeak.Load() != 1 {
		t.Fatalf("capped tenant peak concurrency %d, want 1", cappedPeak.Load())
	}
}

// TestFairResubmitBypassesQuota: a promotion re-enqueue lands even
// with the tenant (and global backlog) at quota; plain Submit still
// rejects, and a drained scheduler refuses with ErrClosed.
func TestFairResubmitBypassesQuota(t *testing.T) {
	f, release := gatedFair(t, FairConfig{MaxQueuePerTenant: 1, MaxQueueTotal: 2})
	var ran atomic.Int64
	count := func(context.Context) { ran.Add(1) }
	if err := f.Submit("t", Batch, count); err != nil {
		t.Fatal(err)
	}
	var rej *Rejected
	if err := f.Submit("t", Batch, count); !errors.As(err, &rej) {
		t.Fatalf("over-quota submit = %v, want *Rejected", err)
	}
	if err := f.Resubmit("t", Batch, count); err != nil {
		t.Fatalf("resubmit over quota: %v", err)
	}
	close(release)
	drain(t, f)
	if ran.Load() != 2 {
		t.Fatalf("%d tasks ran, want 2 (one submitted, one resubmitted)", ran.Load())
	}
	if err := f.Resubmit("t", Batch, count); !errors.Is(err, ErrClosed) {
		t.Fatalf("resubmit after drain = %v, want ErrClosed", err)
	}
}

// TestFairGlobalBacklogCap: the global cap rejects even a fresh tenant.
func TestFairGlobalBacklogCap(t *testing.T) {
	f, release := gatedFair(t, FairConfig{MaxQueueTotal: 2, MaxQueuePerTenant: 64})
	defer func() { close(release); drain(t, f) }()
	noop := func(context.Context) {}
	for i := 0; i < 2; i++ {
		if err := f.Submit("a", Batch, noop); err != nil {
			t.Fatal(err)
		}
	}
	var rej *Rejected
	if err := f.Submit("b", Batch, noop); !errors.As(err, &rej) {
		t.Fatalf("over-cap submit returned %v, want *Rejected", err)
	}
	if err := f.Admit("b"); err == nil {
		t.Fatal("Admit must refuse at the global cap")
	}
}

// TestFairDrain: Drain runs the backlog, then rejects new submissions
// with ErrClosed.
func TestFairDrain(t *testing.T) {
	f := NewFair(FairConfig{Workers: 2})
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if err := f.Submit("t", Batch, func(context.Context) { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, f)
	if ran.Load() != 8 {
		t.Fatalf("%d tasks ran before drain returned, want 8", ran.Load())
	}
	if err := f.Submit("t", Batch, func(context.Context) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain = %v, want ErrClosed", err)
	}
	if err := f.Admit("t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("admit after drain = %v, want ErrClosed", err)
	}
}

// TestFairDrainDeadlineCancelsTasks: an expired drain context cancels
// the base context handed to tasks.
func TestFairDrainDeadlineCancelsTasks(t *testing.T) {
	f := NewFair(FairConfig{Workers: 1})
	entered := make(chan struct{})
	if err := f.Submit("t", Batch, func(ctx context.Context) {
		close(entered)
		<-ctx.Done()
	}); err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := f.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
}

// TestFairPrunesIdleTenants: undeclared tenants vanish from the stats
// once idle; declared tenants stay.
func TestFairPrunesIdleTenants(t *testing.T) {
	f := NewFair(FairConfig{
		Workers: 2,
		Tenants: map[string]TenantConfig{"declared": {Weight: 2}},
	})
	done := make(chan struct{})
	if err := f.Submit("transient", Batch, func(context.Context) { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
	deadline := time.Now().Add(5 * time.Second)
	for {
		names := map[string]bool{}
		for _, ts := range f.Tenants() {
			names[ts.Name] = true
		}
		if !names["transient"] && names["declared"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant stats never settled: %v", f.Tenants())
		}
		time.Sleep(time.Millisecond)
	}
	drain(t, f)
}

// TestFairConcurrentHammer drives many tenants from many goroutines;
// run with -race this is the scheduler's data-race canary.
func TestFairConcurrentHammer(t *testing.T) {
	f := NewFair(FairConfig{Workers: 4, MaxQueuePerTenant: 16})
	var ran, rejected atomic.Int64
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c", "d", "e"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tn := tenants[(w+i)%len(tenants)]
				class := Batch
				if i%3 == 0 {
					class = Interactive
				}
				err := f.Submit(tn, class, func(context.Context) { ran.Add(1) })
				var rej *Rejected
				switch {
				case err == nil:
				case errors.As(err, &rej):
					rejected.Add(1)
				default:
					t.Errorf("submit: %v", err)
				}
				f.Depth()
				f.Running()
				f.Tenants()
			}
		}(w)
	}
	wg.Wait()
	drain(t, f)
	if ran.Load()+rejected.Load() != 400 {
		t.Fatalf("ran %d + rejected %d != 400 submissions", ran.Load(), rejected.Load())
	}
}

func TestParseTenantSpec(t *testing.T) {
	got, err := ParseTenantSpec("gold:4,free:1:8:2")
	if err != nil {
		t.Fatal(err)
	}
	if got["gold"].Weight != 4 || got["free"].Weight != 1 || got["free"].MaxQueue != 8 || got["free"].MaxRunning != 2 {
		t.Fatalf("parsed %+v", got)
	}
	if m, err := ParseTenantSpec("  "); err != nil || m != nil {
		t.Fatalf("blank spec = %v, %v", m, err)
	}
	for _, bad := range []string{"noweight", "x:0", "x:-1", "x:nan", "x:1:y", "x:1:1:z", "x:1,x:2", ":2", "x:1:2:3:4"} {
		if _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{"": Batch, "batch": Batch, "interactive": Interactive} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseClass("realtime"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
	if Interactive.String() != "interactive" || Batch.String() != "batch" {
		t.Error("Class.String round trip broken")
	}
}
