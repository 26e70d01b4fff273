package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/faultpoint"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/verify"
)

// startTestCluster brings up a coordinator and workers in-process over
// loopback TCP.
func startTestCluster(t *testing.T, workers int, capacity int) (*Coordinator, context.CancelFunc) {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0", Options{
		MinNodes:    workers,
		WaitNodes:   10 * time.Second,
		StepTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		go RunWorker(ctx, coord.Addr().String(), WorkerOptions{
			Name:     fmt.Sprintf("w%d", i),
			Capacity: capacity,
		})
	}
	return coord, func() {
		cancel()
		coord.Close()
	}
}

func collectSteps(t *testing.T, res *euler.Result) []graph.Step {
	t.Helper()
	var steps []graph.Step
	if err := res.Registry.Unroll(func(s graph.Step) error {
		steps = append(steps, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return steps
}

// TestClusterMatchesLocal asserts the tentpole's acceptance criterion: a
// coordinator + workers run over loopback TCPTransport produces exactly
// the circuit the single-process LocalTransport run produces, step for
// step, on every generator family and remote-edge mode.
func TestClusterMatchesLocal(t *testing.T) {
	coord, stop := startTestCluster(t, 2, 4)
	defer stop()

	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus", gen.Torus(12, 9)},
		{"cliques", gen.RingOfCliques(6, 5)},
	}
	{
		g, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: 600, AvgDegree: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 7})
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{"rmat", g})
	}

	for _, tc := range graphs {
		for _, mode := range []euler.Mode{euler.ModeCurrent, euler.ModeDedup, euler.ModeProposed} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
				a := partition.LDG(tc.g, 8, 1)
				cfg := euler.Config{Mode: mode, Validate: true}

				local, err := euler.Run(tc.g, a, cfg)
				if err != nil {
					t.Fatalf("local run: %v", err)
				}
				want := collectSteps(t, local)

				res, _, err := coord.Run(context.Background(), tc.g, a, cfg)
				if err != nil {
					t.Fatalf("cluster run: %v", err)
				}
				got := collectSteps(t, res)

				if err := verify.Circuit(tc.g, got); err != nil {
					t.Fatalf("cluster circuit invalid: %v", err)
				}
				if len(got) != len(want) {
					t.Fatalf("cluster circuit has %d steps, local %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d differs: cluster %+v, local %+v", i, got[i], want[i])
					}
				}

				// The distributed report must carry the same structural
				// content: every level's partitions reported, real wire
				// traffic observed.
				if res.Report.TreeHeight != local.Report.TreeHeight {
					t.Fatalf("tree height %d vs local %d", res.Report.TreeHeight, local.Report.TreeHeight)
				}
				if len(res.Report.Parts) != len(local.Report.Parts) {
					t.Fatalf("%d part reports vs local %d", len(res.Report.Parts), len(local.Report.Parts))
				}
				if res.Report.BSP.WireBytes == 0 {
					t.Fatal("cluster run reports zero wire bytes")
				}
				if local.Report.BSP.WireBytes != 0 {
					t.Fatal("local run reports nonzero wire bytes")
				}
			})
		}
	}
}

// TestClusterKilledWorkerFailsCleanly kills one worker node mid-job and
// asserts the coordinator fails the job promptly with an error — no hang,
// no partial circuit.
func TestClusterKilledWorkerFailsCleanly(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", Options{MinNodes: 2, WaitNodes: 10 * time.Second, StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	go RunWorker(ctx, coord.Addr().String(), WorkerOptions{Name: "steady", Capacity: 4})
	// The doomed node runs the real euler worker program but cuts its
	// conn at superstep 1 of its first job, mid-merge — the harshest
	// failure point.  Later jobs (after it rejoins) run normally.
	var killOnce atomic.Bool
	killOnce.Store(true)
	go bsp.ServeNode(ctx, coord.Addr().String(), func(nodeJob *bsp.NodeJob) ([]byte, error) {
		plan, err := euler.DecodePlanSlice(nodeJob.Plan)
		if err != nil {
			return nil, err
		}
		e := bsp.New(plan.NumWorkers, bsp.WithWorkerRange(plan.Lo, plan.Hi), bsp.WithTransport(nodeJob.Transport))
		wp := euler.NewWorkerProgram(plan, e.Slots())
		killer := bsp.ProgramFunc(func(c *bsp.Context) error {
			if c.Superstep() == 1 && killOnce.CompareAndSwap(true, false) {
				nodeJob.Transport.Close()
			}
			return wp.Compute(c)
		})
		m, err := e.Run(struct {
			bsp.Program
			bsp.BarrierHooks
		}{killer, wp})
		if err != nil {
			return nil, err
		}
		return wp.Result(m), nil
	}, bsp.NodeOptions{Name: "doomed", Capacity: 4})

	g := gen.Torus(16, 16)
	a := partition.LDG(g, 8, 1)
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.Run(context.Background(), g, a, euler.Config{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job with a killed worker reported success")
		}
		t.Logf("job failed as expected: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("coordinator hung after worker death")
	}

	st, ok := coord.ClusterStatus().(Status)
	if !ok || st.JobsFailed == 0 {
		t.Fatalf("status does not count the failure: %+v", st)
	}

	// The abort must not leave ghost registrations behind: both nodes
	// re-register and the next job over the healed cluster succeeds.
	res, _, err := coord.Run(context.Background(), g, a, euler.Config{})
	if err != nil {
		t.Fatalf("job after cluster heal: %v", err)
	}
	steps := collectSteps(t, res)
	if err := verify.Circuit(g, steps); err != nil {
		t.Fatal(err)
	}
}

// TestClusterNoNodes: a coordinator with no joined workers fails a job
// with a clear error once the wait deadline passes.
func TestClusterNoNodes(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", Options{MinNodes: 1, WaitNodes: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	g := gen.Torus(4, 4)
	a := partition.LDG(g, 2, 1)
	_, _, err = coord.Run(context.Background(), g, a, euler.Config{})
	if err == nil || !strings.Contains(err.Error(), "waiting for") {
		t.Fatalf("err = %v, want waiting-for-nodes error", err)
	}
}

// TestClusterRetriesAfterNodeLoss arms a faultpoint that cuts one node's
// conn mid-superstep and asserts the coordinator's retry policy absorbs
// the loss: the job succeeds after a re-plan, the circuit is
// byte-identical to the local run, and the retry counters advance.
func TestClusterRetriesAfterNodeLoss(t *testing.T) {
	faultpoint.Reset()
	if err := faultpoint.Arm("bsp.node.wire=drop,step=1,times=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Reset)

	coord, err := NewCoordinator("127.0.0.1:0", Options{
		MinNodes: 2, WaitNodes: 10 * time.Second, StepTimeout: 20 * time.Second,
		JobRetries: 3, RetryBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go RunWorker(ctx, coord.Addr().String(), WorkerOptions{Name: fmt.Sprintf("r%d", i), Capacity: 4})
	}

	g := gen.Torus(16, 16)
	a := partition.LDG(g, 8, 1)
	local, err := euler.Run(g, a, euler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := collectSteps(t, local)

	res, info, err := coord.Run(context.Background(), g, a, euler.Config{})
	if err != nil {
		t.Fatalf("job did not survive the node loss: %v", err)
	}
	if faultpoint.Hits(bsp.FaultNodeWire) == 0 {
		t.Fatal("fault never fired; the run proves nothing")
	}
	if info.Attempts < 2 || info.Replans < 1 || info.Degraded {
		t.Fatalf("info = %+v, want >=2 attempts with a re-plan, not degraded", info)
	}
	got := collectSteps(t, res)
	if len(got) != len(want) {
		t.Fatalf("retried circuit has %d steps, local %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d differs after retry: cluster %+v, local %+v", i, got[i], want[i])
		}
	}
	if err := verify.Circuit(g, got); err != nil {
		t.Fatal(err)
	}

	st, ok := coord.ClusterStatus().(Status)
	if !ok || st.JobsRetried < 1 || st.Replans < 1 {
		t.Fatalf("status does not record the retry: %+v", st)
	}
	if st.JobsFailed != 0 {
		t.Fatalf("retried job counted as failed: %+v", st)
	}
	if st.LastError == "" || st.LastErrorAt == nil {
		t.Fatalf("status does not record the attempt failure: %+v", st)
	}
}

// TestClusterDegradedFallback: quorum is unreachable (no workers join)
// but DegradedLocal lets the job complete in-process, flagged degraded,
// with the same circuit a healthy run would produce.
func TestClusterDegradedFallback(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", Options{
		MinNodes: 2, WaitNodes: 300 * time.Millisecond, DegradedLocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	g := gen.Torus(8, 8)
	a := partition.LDG(g, 4, 1)
	local, err := euler.Run(g, a, euler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := collectSteps(t, local)

	res, info, err := coord.Run(context.Background(), g, a, euler.Config{})
	if err != nil {
		t.Fatalf("degraded fallback failed: %v", err)
	}
	if !info.Degraded {
		t.Fatalf("info = %+v, want degraded", info)
	}
	got := collectSteps(t, res)
	if len(got) != len(want) {
		t.Fatalf("degraded circuit has %d steps, local %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d differs in degraded run", i)
		}
	}

	st := coord.ClusterStatus().(Status)
	if st.DegradedRuns != 1 || st.JobsRun != 1 || st.JobsFailed != 0 {
		t.Fatalf("status = %+v, want one degraded completed job", st)
	}
}
