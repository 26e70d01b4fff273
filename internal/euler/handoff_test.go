package euler

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// handoffObserver sits between an engine instance hosting workers [lo, hi)
// and its program, and counts the child states delivered to them: by
// reference, which must come from a co-hosted worker and be charged its
// exact encoded size, or as a msgState payload, which must come from
// another instance.
type handoffObserver struct {
	t              *testing.T
	inner          bsp.Program
	lo, hi         int
	refs, payloads *atomic.Int64
}

func (o *handoffObserver) Compute(ctx *bsp.Context) error {
	for _, msg := range ctx.Received() {
		cohosted := o.lo <= msg.From && msg.From < o.hi
		switch {
		case msg.Ref != nil:
			st, ok := msg.Ref.(*PartState)
			if !ok || !cohosted {
				o.t.Errorf("worker %d: reference %T from worker %d outside [%d, %d)", ctx.Worker(), msg.Ref, msg.From, o.lo, o.hi)
			} else if want := 1 + int64(encodedStateLen(st)); msg.Size != want {
				o.t.Errorf("worker %d: state from %d charged %d bytes, its payload is %d", ctx.Worker(), msg.From, msg.Size, want)
			}
			o.refs.Add(1)
		case msg.Payload[0] == msgState:
			if cohosted {
				o.t.Errorf("worker %d: co-hosted worker %d sent its state as a payload", ctx.Worker(), msg.From)
			}
			o.payloads.Add(1)
		}
	}
	return o.inner.Compute(ctx)
}

// loopbackCluster starts a hub on a loopback port and two equal worker
// nodes that serve its jobs through handle, and stops them when tb ends.
// The context is the nodes' own; jobs run under it.
func loopbackCluster(tb testing.TB, handle bsp.NodeHandler) (context.Context, *bsp.Hub) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	hub := bsp.NewHub(ln, bsp.HubOptions{StepTimeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	var nodes sync.WaitGroup
	tb.Cleanup(func() {
		cancel()
		hub.Close()
		nodes.Wait()
	})
	for i := 0; i < 2; i++ {
		nodes.Add(1)
		go func() {
			defer nodes.Done()
			bsp.ServeNode(ctx, ln.Addr().String(), handle, bsp.NodeOptions{Name: fmt.Sprintf("node-%d", i), Capacity: 1})
		}()
	}
	if err := hub.WaitNodes(ctx, 2); err != nil {
		tb.Fatal(err)
	}
	return ctx, hub
}

// handoffInputs are the graphs the handoff tests run at 4, 8 and 16 parts.
func handoffInputs() map[string]*graph.Graph {
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(12, 3))
	return map[string]*graph.Graph{"ring-of-cliques": gen.RingOfCliques(64, 7), "rmat": rmat}
}

// mergePairs counts the child states a run hands to merge parents.
func mergePairs(t *testing.T, g *graph.Graph, a partition.Assignment) int64 {
	t.Helper()
	_, tree, err := BuildPlan(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, level := range tree.Levels {
		n += int64(len(level))
	}
	return n
}

// TestHandoffLocalByReference: in a single-instance run every child state
// reaches its parent as a *PartState reference and none as a payload.
func TestHandoffLocalByReference(t *testing.T) {
	for name, g := range handoffInputs() {
		for _, parts := range []int32{4, 8, 16} {
			for _, mode := range allModes {
				t.Run(fmt.Sprintf("%s/parts=%d/%v", name, parts, mode), func(t *testing.T) {
					a := partition.LDG(g, parts, 1)
					plan, _, err := BuildPlan(g, a, Config{Mode: mode})
					if err != nil {
						t.Fatal(err)
					}
					registry := NewRegistry(nil, g.NumVertices(), plan.NumWorkers)
					engine := bsp.New(plan.NumWorkers, bsp.WithTransport(bsp.LocalTransport{}))
					program := newPartProgram(plan, progDeps{bodies: registry.sink(), visited: registry.IsVisited, absorb: registry.Absorb}, engine.Slots())
					var refs, payloads atomic.Int64
					obs := &handoffObserver{t: t, inner: program, lo: 0, hi: plan.NumWorkers, refs: &refs, payloads: &payloads}
					if _, err := engine.Run(obs); err != nil {
						t.Fatal(err)
					}
					if want := mergePairs(t, g, a); refs.Load() != want || payloads.Load() != 0 {
						t.Errorf("%d states by reference and %d as payloads, want %d and 0", refs.Load(), payloads.Load(), want)
					}
				})
			}
		}
	}
}

// TestHandoffClusterAccounting runs each input over two engine instances
// joined by a loopback hub: states crossing instances travel as payloads,
// co-hosted ones by reference, and the run's BSP message and byte counts
// equal the single-instance Run's for the same assignment.
func TestHandoffClusterAccounting(t *testing.T) {
	var refs, payloads atomic.Int64
	ctx, hub := loopbackCluster(t, func(job *bsp.NodeJob) ([]byte, error) {
		plan, err := DecodePlanSlice(job.Plan)
		if err != nil {
			return nil, err
		}
		e := bsp.New(plan.NumWorkers, bsp.WithWorkerRange(plan.Lo, plan.Hi), bsp.WithTransport(job.Transport))
		wp := NewWorkerProgram(plan, e.Slots())
		obs := &handoffObserver{t: t, inner: wp, lo: plan.Lo, hi: plan.Hi, refs: &refs, payloads: &payloads}
		m, err := e.Run(struct {
			*handoffObserver
			bsp.BarrierHooks
		}{obs, wp})
		if err != nil {
			return nil, err
		}
		return wp.Result(m), nil
	})

	for name, g := range handoffInputs() {
		for _, parts := range []int32{4, 8, 16} {
			for _, mode := range allModes {
				t.Run(fmt.Sprintf("%s/parts=%d/%v", name, parts, mode), func(t *testing.T) {
					a := partition.LDG(g, parts, 1)
					local, err := Run(g, a, Config{Mode: mode})
					if err != nil {
						t.Fatal(err)
					}
					refs.Store(0)
					payloads.Store(0)
					res, _, err := RunOverCluster(ctx, hub, g, a, Config{Mode: mode}, 2)
					if err != nil {
						t.Fatal(err)
					}
					if want := mergePairs(t, g, a); refs.Load()+payloads.Load() != want || payloads.Load() == 0 {
						t.Errorf("%d states by reference and %d as payloads, want %d in all and at least one payload",
							refs.Load(), payloads.Load(), want)
					}
					lb, cb := local.Report.BSP, res.Report.BSP
					if cb.Messages != lb.Messages || cb.Bytes != lb.Bytes {
						t.Errorf("cluster run: %d messages, %d bytes; in-process run: %d, %d", cb.Messages, cb.Bytes, lb.Messages, lb.Bytes)
					}
				})
			}
		}
	}
}
