// Package bsp is a hand-built Bulk Synchronous Parallel engine: the
// substrate this reproduction uses in place of the paper's Apache Spark
// deployment.  Workers (one per graph partition, each standing in for a
// Spark executor on its own VM) are virtual processors: each superstep the
// active workers run on Slots() goroutines, at most GOMAXPROCS, which take
// them in worker order (Valiant's parallel slackness).  Messages sent
// during superstep s are delivered in bulk after a global barrier at the
// start of superstep s+1, exactly the Pregel/BSP semantics of Valiant's
// model that the paper's algorithm assumes.
//
// The engine measures real per-worker compute time and byte-counts every
// message.  A CostModel converts those observations into the
// platform-overhead component (shuffle transfer, task scheduling, barrier
// coordination) that the paper's Figs. 5–6 attribute to Spark, so the
// "total vs user compute" split is reproducible on a single machine.
package bsp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Message is a payload in flight between two workers.  A message sent
// with SendRef carries Ref instead: a value handed over by pointer to a
// worker of the same engine instance, charged Size bytes as if it were a
// payload of that length.  Ref messages never reach a Transport.
type Message struct {
	From, To int
	Payload  []byte
	Ref      any
	Size     int64
}

// Program is the per-worker compute function of one BSP job.  Compute is
// invoked once per superstep for every active worker, concurrently with
// the workers on other slots; it must only touch worker-local state, the
// Context, and working memory indexed by Context.Slot.
type Program interface {
	Compute(ctx *Context) error
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(ctx *Context) error

// Compute implements Program.
func (f ProgramFunc) Compute(ctx *Context) error { return f(ctx) }

// Context is the per-worker, per-superstep view handed to Program.Compute.
type Context struct {
	worker    int
	slot      int
	superstep int
	inbox     []Message
	outbox    []Message
	halted    bool
	nworkers  int
}

// Worker returns this worker's index in [0, NumWorkers).
func (c *Context) Worker() int { return c.worker }

// Slot returns the index, in [0, Engine.Slots()), of the goroutine running
// this call.  Two Compute calls that run at the same time never share a
// slot, so working memory indexed by slot needs no lock; it is free again
// once the call returns.
func (c *Context) Slot() int { return c.slot }

// Superstep returns the current superstep number, starting at 0.
func (c *Context) Superstep() int { return c.superstep }

// NumWorkers returns the total worker count.
func (c *Context) NumWorkers() int { return c.nworkers }

// Received returns the messages delivered to this worker at the barrier
// preceding this superstep.
func (c *Context) Received() []Message { return c.inbox }

// Send queues a message for delivery to worker `to` at the next barrier.
func (c *Context) Send(to int, payload []byte) {
	if to < 0 || to >= c.nworkers {
		panic(fmt.Sprintf("bsp: send to out-of-range worker %d", to))
	}
	c.outbox = append(c.outbox, Message{From: c.worker, To: to, Payload: payload})
}

// SendRef queues ref for delivery by reference to worker `to` at the next
// barrier, charging size bytes to the run's byte counts and cost model.
// `to` must be hosted by this engine instance; Run fails otherwise.
func (c *Context) SendRef(to int, ref any, size int64) {
	if to < 0 || to >= c.nworkers {
		panic(fmt.Sprintf("bsp: send to out-of-range worker %d", to))
	}
	c.outbox = append(c.outbox, Message{From: c.worker, To: to, Ref: ref, Size: size})
}

// VoteToHalt marks this worker inactive.  It is reactivated if a message
// arrives; the job terminates when every worker has halted and no messages
// are in flight.
func (c *Context) VoteToHalt() { c.halted = true }

// StageStat records one superstep for the engine trace (the textual
// analogue of the paper's Fig. 3 Spark DAG).  A worker's compute time runs
// while it holds a slot; a wait for a free slot counts in no compute term,
// so it shows as stage wall time beyond MaxCompute.
type StageStat struct {
	Superstep     int
	ActiveWorkers int
	Messages      int64
	Bytes         int64
	MaxCompute    time.Duration // slowest worker's real compute time, slot held
	SumCompute    time.Duration // total real compute across workers
	Modeled       time.Duration // modeled wall time incl. platform overhead
	Wire          time.Duration // real barrier/transfer time on the transport
	WireBytes     int64         // frame bytes moved by the transport
}

// Metrics aggregates a full run.
type Metrics struct {
	Supersteps   int
	Messages     int64
	Bytes        int64
	SumCompute   time.Duration // Σ real compute over all workers and steps
	CriticalPath time.Duration // Σ over steps of slowest worker (ideal BSP time)
	ModeledTotal time.Duration // CriticalPath + modeled platform overhead
	WireTotal    time.Duration // Σ real transport barrier time (zero locally)
	WireBytes    int64         // Σ transport frame bytes (zero locally)
	Stages       []StageStat
}

// MergeMetrics combines the per-instance metrics of one distributed run
// into a cluster-wide view: per superstep, message counts and compute sums
// add up, the slowest instance sets the critical path, and the largest
// modeled/wire time stands for the whole barrier (instances block on the
// same hub, so their wire times overlap rather than add).
func MergeMetrics(ms ...Metrics) Metrics {
	var out Metrics
	for _, m := range ms {
		if len(m.Stages) > len(out.Stages) {
			out.Stages = append(out.Stages, make([]StageStat, len(m.Stages)-len(out.Stages))...)
		}
		for i, s := range m.Stages {
			o := &out.Stages[i]
			o.Superstep = s.Superstep
			o.ActiveWorkers += s.ActiveWorkers
			o.Messages += s.Messages
			o.Bytes += s.Bytes
			o.SumCompute += s.SumCompute
			if s.MaxCompute > o.MaxCompute {
				o.MaxCompute = s.MaxCompute
			}
			if s.Modeled > o.Modeled {
				o.Modeled = s.Modeled
			}
			if s.Wire > o.Wire {
				o.Wire = s.Wire
			}
			// Wire *time* overlaps (instances block on the same hub),
			// but bytes moved are distinct per socket and add up.
			o.WireBytes += s.WireBytes
		}
	}
	out.Supersteps = len(out.Stages)
	for _, s := range out.Stages {
		out.Messages += s.Messages
		out.Bytes += s.Bytes
		out.SumCompute += s.SumCompute
		out.CriticalPath += s.MaxCompute
		out.ModeledTotal += s.Modeled
		out.WireTotal += s.Wire
		out.WireBytes += s.WireBytes
	}
	return out
}

// Engine executes Programs over the worker range [lo, hi) of a job with
// nworkers workers in total.  The default engine hosts the full range over
// a LocalTransport; a distributed engine instance hosts a sub-range and
// exchanges the rest through its Transport.
type Engine struct {
	nworkers  int
	lo, hi    int
	slots     int
	transport Transport
	cost      CostModel
	maxSteps  int
}

// Option configures an Engine.
type Option func(*Engine)

// WithCostModel installs a platform cost model; the zero model adds no
// overhead.
func WithCostModel(c CostModel) Option {
	return func(e *Engine) { e.cost = c }
}

// WithMaxSupersteps bounds the run; exceeding it is reported as an error.
// The default is 1<<20, a guard against non-terminating programs.
func WithMaxSupersteps(n int) Option {
	return func(e *Engine) { e.maxSteps = n }
}

// WithTransport installs the transport carrying inter-instance messages
// and the barrier; the default is LocalTransport.  The engine owns the
// transport for the duration of Run but does not close it.
func WithTransport(t Transport) Option {
	return func(e *Engine) { e.transport = t }
}

// WithWorkerRange restricts the engine instance to hosting workers
// [lo, hi) of the job; messages addressed outside the range are routed
// through the transport.  The default range is the full worker set.
func WithWorkerRange(lo, hi int) Option {
	return func(e *Engine) { e.lo, e.hi = lo, hi }
}

// WithSequentialWorkers gives the engine one slot, so the workers of each
// superstep run one at a time in worker order.  BSP semantics are
// unchanged (messages still deliver at the barrier), but per-worker
// compute timings become free of memory-bandwidth interference — the
// configuration used for the Fig. 7 complexity measurements, where each
// paper "worker" had a dedicated VM.
func WithSequentialWorkers() Option {
	return func(e *Engine) { e.slots = 1 }
}

// New returns an Engine with nworkers workers.
func New(nworkers int, opts ...Option) *Engine {
	if nworkers <= 0 {
		panic("bsp: need at least one worker")
	}
	e := &Engine{nworkers: nworkers, lo: 0, hi: nworkers, maxSteps: 1 << 20, transport: LocalTransport{}}
	for _, o := range opts {
		o(e)
	}
	if e.lo < 0 || e.hi > e.nworkers || e.lo >= e.hi {
		panic(fmt.Sprintf("bsp: worker range [%d, %d) invalid for %d workers", e.lo, e.hi, e.nworkers))
	}
	if e.transport == nil {
		e.transport = LocalTransport{}
	}
	if e.slots == 0 {
		e.slots = min(runtime.GOMAXPROCS(0), e.hi-e.lo)
	}
	return e
}

// NumWorkers returns the engine's worker count.
func (e *Engine) NumWorkers() int { return e.nworkers }

// Slots returns how many workers this instance runs at once: GOMAXPROCS
// capped by the hosted worker count (one with WithSequentialWorkers),
// fixed when the engine is built.  A program sizes per-slot working
// memory by it.
func (e *Engine) Slots() int { return e.slots }

// Run executes p to termination: all workers halted with no messages in
// flight, cluster-wide when the transport is remote.  It returns the run
// metrics.  If any Compute call fails, Run stops at that barrier and
// returns the first error by worker index.
func (e *Engine) Run(p Program) (Metrics, error) {
	var m Metrics
	hooks, _ := p.(BarrierHooks)
	inboxes := make([][]Message, e.nworkers)
	halted := make([]bool, e.nworkers)

	for step := 0; ; step++ {
		if step >= e.maxSteps {
			return m, fmt.Errorf("bsp: exceeded %d supersteps", e.maxSteps)
		}
		// A worker is active in this superstep if it has not halted or has
		// mail waiting (mail reactivates, per Pregel semantics).  A
		// distributed instance can sit out a superstep with no active
		// workers of its own while the rest of the cluster computes; it
		// still participates in the barrier below.
		var active []int
		for w := e.lo; w < e.hi; w++ {
			if !halted[w] || len(inboxes[w]) > 0 {
				active = append(active, w)
			}
		}

		// The active workers run on up to Slots() goroutines, each taking
		// the next worker in ID order.  A worker's compute clock runs
		// only while it holds a slot; the wait for one shows up as wall
		// time beyond the critical path.
		ctxs := make([]*Context, len(active))
		compute := make([]time.Duration, len(active))
		errs := make([]error, len(active))
		for i, w := range active {
			ctxs[i] = &Context{
				worker:    w,
				superstep: step,
				inbox:     inboxes[w],
				nworkers:  e.nworkers,
			}
		}
		runWorker := func(i, slot int) {
			ctxs[i].slot = slot
			start := time.Now()
			defer func() {
				compute[i] = time.Since(start)
				if r := recover(); r != nil {
					// A panicking worker is a failed task, not a
					// crashed cluster: surface it as an error.
					errs[i] = fmt.Errorf("worker %d panic: %v", ctxs[i].worker, r)
				}
			}()
			errs[i] = p.Compute(ctxs[i])
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for slot := range min(e.slots, len(active)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(active); i = int(next.Add(1) - 1) {
					runWorker(i, slot)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return m, fmt.Errorf("bsp: superstep %d: %w", step, err)
			}
		}

		// Barrier part 1: collect outboxes, update halt state, deliver
		// locally, and set aside messages leaving this instance's range.
		stage := StageStat{Superstep: step, ActiveWorkers: len(active)}
		for w := e.lo; w < e.hi; w++ {
			inboxes[w] = nil
		}
		var out []Message
		perWorkerBytes := make([]int64, e.nworkers)
		perWorkerMsgs := make([]int64, e.nworkers)
		for i, w := range active {
			halted[w] = ctxs[i].halted
			if compute[i] > stage.MaxCompute {
				stage.MaxCompute = compute[i]
			}
			stage.SumCompute += compute[i]
			for _, msg := range ctxs[i].outbox {
				if msg.To >= e.lo && msg.To < e.hi {
					inboxes[msg.To] = append(inboxes[msg.To], msg)
				} else if msg.Ref != nil {
					return m, fmt.Errorf("bsp: superstep %d: worker %d sent a by-reference message to worker %d outside local range [%d, %d)", step, msg.From, msg.To, e.lo, e.hi)
				} else {
					out = append(out, msg)
				}
				b := int64(len(msg.Payload)) + msg.Size
				stage.Messages++
				stage.Bytes += b
				perWorkerBytes[msg.From] += b
				perWorkerBytes[msg.To] += b
				perWorkerMsgs[msg.From]++
			}
		}

		// Barrier part 2: the transport exchange.  LocalTransport answers
		// from the local activity alone; a remote transport ships out and
		// the sideband, blocks on the hub, and brings back remote mail
		// plus the global halt consensus.
		localActive := false
		for w := e.lo; w < e.hi; w++ {
			if !halted[w] || len(inboxes[w]) > 0 {
				localActive = true
				break
			}
		}
		ex := Exchange{Step: step, Out: out, LocalActive: localActive}
		if hooks != nil {
			band, err := hooks.EmitSideband(step)
			if err != nil {
				return m, fmt.Errorf("bsp: superstep %d sideband: %w", step, err)
			}
			ex.Sideband = band
		}
		d, err := e.transport.Exchange(&ex)
		if err != nil {
			return m, fmt.Errorf("bsp: superstep %d barrier: %w", step, err)
		}
		for _, msg := range d.In {
			if msg.To < e.lo || msg.To >= e.hi {
				return m, fmt.Errorf("bsp: superstep %d: delivery for worker %d outside local range [%d, %d)", step, msg.To, e.lo, e.hi)
			}
			inboxes[msg.To] = append(inboxes[msg.To], msg)
		}
		if hooks != nil {
			if err := hooks.ApplySideband(step, d.Sideband); err != nil {
				return m, fmt.Errorf("bsp: superstep %d sideband: %w", step, err)
			}
		}
		stage.Wire = time.Duration(d.Wire)
		stage.WireBytes = d.WireBytes
		// The modeled platform overhead is the synthetic cost model plus
		// the real wire time the transport observed (zero locally), so
		// distributed runs feed the model from measured shuffle stats.
		stage.Modeled = e.cost.StageTime(stage, active, compute, perWorkerBytes, perWorkerMsgs) + stage.Wire

		m.Supersteps++
		m.Messages += stage.Messages
		m.Bytes += stage.Bytes
		m.SumCompute += stage.SumCompute
		m.CriticalPath += stage.MaxCompute
		m.ModeledTotal += stage.Modeled
		m.WireTotal += stage.Wire
		m.WireBytes += stage.WireBytes
		m.Stages = append(m.Stages, stage)
		if d.Halt {
			break
		}
	}
	return m, nil
}
