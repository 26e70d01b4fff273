package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/cluster"
	"repro/internal/euler"
	"repro/internal/sched"
	"repro/internal/service/job"
)

// newClusterServer wires an API server whose jobs run over a real
// loopback cluster with the given worker nodes.
func newClusterServer(t *testing.T, nodes int) (*cluster.Coordinator, *httptest.Server, context.Context) {
	t.Helper()
	coord, err := cluster.NewCoordinator("127.0.0.1:0", cluster.Options{
		MinNodes:    nodes,
		WaitNodes:   10 * time.Second,
		StepTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < nodes; i++ {
		go cluster.RunWorker(ctx, coord.Addr().String(), cluster.WorkerOptions{
			Name: fmt.Sprintf("api-w%d", i), Capacity: 4,
		})
	}
	sc := sched.NewFair(sched.FairConfig{Workers: 2, MaxQueuePerTenant: 8})
	s := New(Config{
		Store:   job.NewStore(50),
		Sched:   sc,
		DataDir: t.TempDir(),
		Runner:  coord.Solve,
		Cluster: coord,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		sc.Drain(drainCtx)
		cancel()
		coord.Close()
	})
	return coord, ts, ctx
}

func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestClusterEndpointStandalone: without a cluster the endpoint reports
// standalone.
func TestClusterEndpointStandalone(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)
	var got map[string]any
	if err := json.Unmarshal(fetchBody(t, ts.URL+"/v1/cluster"), &got); err != nil {
		t.Fatal(err)
	}
	if got["role"] != "standalone" {
		t.Fatalf("role = %v, want standalone", got["role"])
	}
}

// TestClusterJobOverHTTP submits a job to a coordinator API and checks
// the streamed circuit matches the standalone server's for the same spec.
func TestClusterJobOverHTTP(t *testing.T) {
	_, clusterTS, _ := newClusterServer(t, 2)
	_, soloTS := newTestServer(t, 1, 4)

	const spec = `{"generator":{"family":"cliques","k":6,"c":5},"parts":6,"seed":3}`
	cj := submitJSON(t, clusterTS, spec)
	cj = waitState(t, clusterTS, cj.ID, job.StateDone)
	if cj.Steps == 0 {
		t.Fatal("cluster job streamed zero steps")
	}
	sj := submitJSON(t, soloTS, spec)
	waitState(t, soloTS, sj.ID, job.StateDone)

	clusterCircuit := fetchBody(t, clusterTS.URL+"/v1/jobs/"+cj.ID+"/circuit")
	soloCircuit := fetchBody(t, soloTS.URL+"/v1/jobs/"+sj.ID+"/circuit")
	if string(clusterCircuit) != string(soloCircuit) {
		t.Fatal("cluster circuit differs from standalone circuit")
	}

	// The endpoint reflects the topology and the finished job.
	var st cluster.Status
	if err := json.Unmarshal(fetchBody(t, clusterTS.URL+"/v1/cluster"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" || len(st.Nodes) != 2 || st.JobsRun < 1 {
		t.Fatalf("cluster status = %+v, want coordinator with 2 nodes and >=1 job", st)
	}
}

// TestClusterKilledWorkerJobFails: a worker dying mid-job drives the HTTP
// job to FAILED with the barrier error, and the service stays healthy.
func TestClusterKilledWorkerJobFails(t *testing.T) {
	coord, ts, ctx := newClusterServer(t, 1)

	// Add a second node that dies at its first merge superstep; with
	// MinNodes=1 already satisfied, wait until both are registered so
	// the job spans the doomed node too.
	go bsp.ServeNode(ctx, coord.Addr().String(), func(nodeJob *bsp.NodeJob) ([]byte, error) {
		plan, err := euler.DecodePlanSlice(nodeJob.Plan)
		if err != nil {
			return nil, err
		}
		e := bsp.New(plan.NumWorkers, bsp.WithWorkerRange(plan.Lo, plan.Hi), bsp.WithTransport(nodeJob.Transport))
		wp := euler.NewWorkerProgram(plan, e.Slots())
		_, err = e.Run(struct {
			bsp.Program
			bsp.BarrierHooks
		}{bsp.ProgramFunc(func(c *bsp.Context) error {
			if c.Superstep() == 1 {
				nodeJob.Transport.Close()
			}
			return wp.Compute(c)
		}), wp})
		return nil, err
	}, bsp.NodeOptions{Name: "doomed", Capacity: 4})

	deadline := time.Now().Add(10 * time.Second)
	for {
		var st cluster.Status
		json.Unmarshal(fetchBody(t, ts.URL+"/v1/cluster"), &st)
		if len(st.Nodes) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed node never joined")
		}
		time.Sleep(20 * time.Millisecond)
	}

	snap := submitJSON(t, ts, `{"generator":{"family":"torus","width":16,"height":16},"parts":8}`)
	snap = waitState(t, ts, snap.ID, job.StateFailed)
	if snap.Error == "" {
		t.Fatal("failed job carries no error")
	}
	t.Logf("job failed with: %s", snap.Error)
}
