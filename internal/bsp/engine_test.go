package bsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestHaltImmediately: all workers halt in step 0 without sending; the run
// takes exactly one superstep.
func TestHaltImmediately(t *testing.T) {
	e := New(4)
	m, err := e.Run(ProgramFunc(func(ctx *Context) error {
		ctx.VoteToHalt()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Supersteps != 1 {
		t.Fatalf("Supersteps = %d, want 1", m.Supersteps)
	}
	if m.Messages != 0 {
		t.Fatalf("Messages = %d, want 0", m.Messages)
	}
}

// TestTokenRing passes a counter token around a ring of workers; each hop
// is one superstep, verifying delivery, reactivation, and termination.
func TestTokenRing(t *testing.T) {
	const workers, hops = 5, 12
	e := New(workers)
	var lastSeen int64 = -1
	m, err := e.Run(ProgramFunc(func(ctx *Context) error {
		ctx.VoteToHalt()
		if ctx.Superstep() == 0 {
			if ctx.Worker() == 0 {
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], 0)
				ctx.Send(1%workers, buf[:])
			}
			return nil
		}
		for _, msg := range ctx.Received() {
			count := int64(binary.LittleEndian.Uint64(msg.Payload))
			atomic.StoreInt64(&lastSeen, count)
			if count+1 < hops {
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], uint64(count+1))
				ctx.Send((ctx.Worker()+1)%workers, buf[:])
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if lastSeen != hops-1 {
		t.Fatalf("token count = %d, want %d", lastSeen, hops-1)
	}
	// 1 seed step + hops delivery steps.
	if m.Supersteps != hops+1 {
		t.Fatalf("Supersteps = %d, want %d", m.Supersteps, hops+1)
	}
	if m.Messages != hops {
		t.Fatalf("Messages = %d, want %d", m.Messages, hops)
	}
}

// TestAllToAll has every worker message every other worker once and halts.
func TestAllToAll(t *testing.T) {
	const workers = 6
	e := New(workers)
	var received int64
	m, err := e.Run(ProgramFunc(func(ctx *Context) error {
		switch ctx.Superstep() {
		case 0:
			for w := 0; w < workers; w++ {
				if w != ctx.Worker() {
					ctx.Send(w, []byte{byte(ctx.Worker())})
				}
			}
		case 1:
			atomic.AddInt64(&received, int64(len(ctx.Received())))
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(workers * (workers - 1))
	if received != want {
		t.Fatalf("received = %d, want %d", received, want)
	}
	if m.Bytes != want {
		t.Fatalf("Bytes = %d, want %d", m.Bytes, want)
	}
}

// TestComputeError propagates worker errors.
func TestComputeError(t *testing.T) {
	e := New(3)
	boom := errors.New("boom")
	_, err := e.Run(ProgramFunc(func(ctx *Context) error {
		if ctx.Worker() == 2 {
			return boom
		}
		ctx.VoteToHalt()
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestMaxSupersteps guards non-termination.
func TestMaxSupersteps(t *testing.T) {
	e := New(2, WithMaxSupersteps(5))
	_, err := e.Run(ProgramFunc(func(ctx *Context) error {
		ctx.Send(1-ctx.Worker(), []byte("ping")) // never halts
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want superstep bound error", err)
	}
}

// TestSendOutOfRange: a worker panic (here from an out-of-range Send) is
// reported as a failed-task error, not a process crash.
func TestSendOutOfRange(t *testing.T) {
	e := New(2)
	_, err := e.Run(ProgramFunc(func(ctx *Context) error {
		ctx.Send(7, nil)
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want worker panic error", err)
	}
}

// TestCostModelAddsOverhead verifies modeled time exceeds critical path
// when a cost model is installed, and equals it otherwise.
func TestCostModelAddsOverhead(t *testing.T) {
	run := func(opts ...Option) Metrics {
		e := New(3, opts...)
		m, err := e.Run(ProgramFunc(func(ctx *Context) error {
			if ctx.Superstep() == 0 {
				ctx.Send((ctx.Worker()+1)%3, make([]byte, 1<<20))
			}
			ctx.VoteToHalt()
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := run()
	if plain.ModeledTotal != plain.CriticalPath {
		t.Errorf("zero model: modeled %v != critical path %v",
			plain.ModeledTotal, plain.CriticalPath)
	}
	modeled := run(WithCostModel(CommodityCluster()))
	if modeled.ModeledTotal <= modeled.CriticalPath {
		t.Errorf("cost model added no overhead: %v <= %v",
			modeled.ModeledTotal, modeled.CriticalPath)
	}
	// 1 MiB at 125 MB/s ≈ 8.4 ms, plus 2 barriers ≥ 500 ms.
	if modeled.ModeledTotal < 500*time.Millisecond {
		t.Errorf("modeled total %v implausibly low", modeled.ModeledTotal)
	}
}

// TestStageStats sanity-checks the per-stage trace.
func TestStageStats(t *testing.T) {
	e := New(2)
	m, err := e.Run(ProgramFunc(func(ctx *Context) error {
		if ctx.Superstep() == 0 && ctx.Worker() == 0 {
			ctx.Send(1, []byte("abc"))
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stages) != m.Supersteps {
		t.Fatalf("Stages len %d != Supersteps %d", len(m.Stages), m.Supersteps)
	}
	if m.Stages[0].Bytes != 3 {
		t.Fatalf("stage 0 bytes = %d, want 3", m.Stages[0].Bytes)
	}
	if m.Stages[0].ActiveWorkers != 2 || m.Stages[1].ActiveWorkers != 1 {
		t.Fatalf("active workers per stage: %d, %d; want 2, 1",
			m.Stages[0].ActiveWorkers, m.Stages[1].ActiveWorkers)
	}
	trace := FormatTrace(m)
	if !strings.Contains(trace, "stage  0") {
		t.Errorf("trace missing stage line:\n%s", trace)
	}
}

// TestWorkerIsolation ensures contexts do not leak between workers.
func TestWorkerIsolation(t *testing.T) {
	const workers = 8
	e := New(workers)
	seen := make([]int64, workers)
	_, err := e.Run(ProgramFunc(func(ctx *Context) error {
		atomic.AddInt64(&seen[ctx.Worker()], 1)
		if ctx.NumWorkers() != workers {
			t.Errorf("NumWorkers = %d", ctx.NumWorkers())
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for w, n := range seen {
		if n != 1 {
			t.Errorf("worker %d ran %d times, want 1", w, n)
		}
	}
}

// TestSlotsCount: an engine runs min(GOMAXPROCS, hosted workers) slots,
// one when sequential.
func TestSlotsCount(t *testing.T) {
	if got, want := New(64).Slots(), min(runtime.GOMAXPROCS(0), 64); got != want {
		t.Errorf("New(64).Slots() = %d, want %d", got, want)
	}
	if got := New(64, WithWorkerRange(0, 1)).Slots(); got != 1 {
		t.Errorf("one hosted worker: Slots() = %d, want 1", got)
	}
	if got := New(64, WithSequentialWorkers()).Slots(); got != 1 {
		t.Errorf("sequential: Slots() = %d, want 1", got)
	}
}

// TestSlotExclusive runs 64 workers over three supersteps on more slots
// than one: no two concurrent calls share a Slot(), at most Slots() calls
// are in flight, and every active worker computes exactly once per
// superstep.
func TestSlotExclusive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers, steps = 64, 3
	e := New(workers)
	busy := make([]atomic.Bool, e.Slots())
	var inflight, peak atomic.Int64
	var calls [steps][workers]atomic.Int64
	_, err := e.Run(ProgramFunc(func(ctx *Context) error {
		slot := ctx.Slot()
		if slot < 0 || slot >= e.Slots() {
			return fmt.Errorf("worker %d: slot %d outside [0, %d)", ctx.Worker(), slot, e.Slots())
		}
		if !busy[slot].CompareAndSwap(false, true) {
			return fmt.Errorf("worker %d: slot %d already busy", ctx.Worker(), slot)
		}
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		calls[ctx.Superstep()][ctx.Worker()].Add(1)
		for i := 0; i < 1000; i++ { // widen the window for overlap
			runtime.Gosched()
		}
		inflight.Add(-1)
		busy[slot].Store(false)
		if ctx.Superstep() < steps-1 {
			ctx.Send((ctx.Worker()+1)%workers, []byte{1})
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > int64(e.Slots()) || p < 1 {
		t.Errorf("peak in-flight calls %d, want 1..%d", p, e.Slots())
	}
	for s := range calls {
		for w := range calls[s] {
			if n := calls[s][w].Load(); n != 1 {
				t.Errorf("superstep %d: worker %d computed %d times, want 1", s, w, n)
			}
		}
	}
}

// TestSlotPanicSurfaces: a panicking worker becomes its own error while
// its slot goes on to run the remaining workers, and Run reports the
// first failure by worker index.
func TestSlotPanicSurfaces(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithSequentialWorkers()}} {
		const workers = 16
		var ran atomic.Int64
		_, err := New(workers, opts...).Run(ProgramFunc(func(ctx *Context) error {
			ran.Add(1)
			switch ctx.Worker() {
			case 5:
				panic("kaboom")
			case 9:
				return errors.New("later failure")
			}
			ctx.VoteToHalt()
			return nil
		}))
		if err == nil || !strings.Contains(err.Error(), "worker 5 panic: kaboom") {
			t.Errorf("err = %v, want worker 5's panic", err)
		}
		if n := ran.Load(); n != workers {
			t.Errorf("%d of %d workers ran after the panic", n, workers)
		}
	}
}

// TestSequentialWorkersSameResult checks that sequential execution is
// behaviourally identical to concurrent execution.
func TestSequentialWorkersSameResult(t *testing.T) {
	run := func(opts ...Option) Metrics {
		e := New(4, opts...)
		m, err := e.Run(ProgramFunc(func(ctx *Context) error {
			if ctx.Superstep() < 3 {
				ctx.Send((ctx.Worker()+1)%4, []byte{byte(ctx.Superstep())})
			}
			ctx.VoteToHalt()
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	conc := run()
	seq := run(WithSequentialWorkers())
	if conc.Supersteps != seq.Supersteps || conc.Messages != seq.Messages || conc.Bytes != seq.Bytes {
		t.Fatalf("sequential run diverged: %+v vs %+v", seq, conc)
	}
}

// TestSequentialWorkerPanicSurfaces checks panic recovery in the serial path.
func TestSequentialWorkerPanicSurfaces(t *testing.T) {
	e := New(2, WithSequentialWorkers())
	_, err := e.Run(ProgramFunc(func(ctx *Context) error {
		if ctx.Worker() == 1 {
			panic("kaboom")
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic error", err)
	}
}

// TestSendRefDeliversPointer: a SendRef value arrives as the very pointer
// the sender queued, with no payload, and the receiver may write through
// it — the barrier orders the handoff between the two goroutines.
func TestSendRefDeliversPointer(t *testing.T) {
	const workers = 6
	type box struct{ from, hops int }
	sent := make([]*box, workers)
	got := make([]*box, workers)
	_, err := New(workers).Run(ProgramFunc(func(ctx *Context) error {
		w := ctx.Worker()
		switch ctx.Superstep() {
		case 0:
			sent[w] = &box{from: w}
			ctx.SendRef((w+1)%workers, sent[w], 8)
		case 1:
			for _, msg := range ctx.Received() {
				b, ok := msg.Ref.(*box)
				if !ok || msg.Payload != nil || msg.Size != 8 {
					return fmt.Errorf("worker %d: message %+v is not the queued reference", w, msg)
				}
				b.hops++
				got[w] = b
			}
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for w := range got {
		from := (w + workers - 1) % workers
		if got[w] != sent[from] || got[w].from != from || got[w].hops != 1 {
			t.Errorf("worker %d received %p %+v, worker %d sent %p", w, got[w], got[w], from, sent[from])
		}
	}
}

// TestSendRefChargedLikePayload: a reference of Size n is charged exactly
// as an n-byte payload — stage and run byte counts, and the per-worker
// bytes the cost model reads (with 1 byte/s and no other overhead, a
// stage's modeled time is the busiest worker's bytes in seconds).
func TestSendRefChargedLikePayload(t *testing.T) {
	const workers = 4
	size := func(w int) int64 { return int64(w+1) * 1000 }
	run := func(byRef bool) Metrics {
		m, err := New(workers, WithCostModel(CostModel{BytesPerSecond: 1})).Run(ProgramFunc(func(ctx *Context) error {
			if w := ctx.Worker(); ctx.Superstep() == 0 {
				if byRef {
					ctx.SendRef((w+1)%workers, &w, size(w))
				} else {
					ctx.Send((w+1)%workers, make([]byte, size(w)))
				}
			}
			ctx.VoteToHalt()
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref, payload := run(true), run(false)
	if ref.Bytes != 10000 || ref.Bytes != payload.Bytes || ref.Stages[0].Bytes != payload.Stages[0].Bytes ||
		ref.Messages != payload.Messages {
		t.Fatalf("ref run %d bytes / %d msgs (stage 0: %d), payload run %d / %d (stage 0: %d)",
			ref.Bytes, ref.Messages, ref.Stages[0].Bytes, payload.Bytes, payload.Messages, payload.Stages[0].Bytes)
	}
	// Worker 3 sends 4000 and receives 3000 bytes: the busiest.
	want := 7000 * time.Second
	for name, m := range map[string]Metrics{"ref": ref, "payload": payload} {
		if got := m.Stages[0].Modeled.Truncate(time.Second); got != want {
			t.Errorf("%s run: stage 0 modeled %v, want %v", name, got, want)
		}
	}
}

// TestSendRefOutsideRange: a reference addressed to a worker another
// instance hosts cannot be serialised, so Run fails naming the worker
// rather than shipping or dropping it.
func TestSendRefOutsideRange(t *testing.T) {
	_, err := New(4, WithWorkerRange(0, 2)).Run(ProgramFunc(func(ctx *Context) error {
		if ctx.Worker() == 1 {
			ctx.SendRef(3, ctx, 1)
		}
		ctx.VoteToHalt()
		return nil
	}))
	if err == nil || !strings.Contains(err.Error(), "worker 3") {
		t.Fatalf("err = %v, want an error naming worker 3", err)
	}
}
