package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	euler "repro"
	ieuler "repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/service/job"
)

// newSchedServer wires an API server over the given scheduler, with an
// optional result cache.
func newSchedServer(t *testing.T, sc *sched.Fair, cache *sched.ResultCache) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Store:   job.NewStore(50),
		Sched:   sc,
		Cache:   cache,
		DataDir: t.TempDir(),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sc.Drain(ctx)
		if cache != nil {
			cache.Close()
		}
	})
	return s, ts
}

// newTestServer is the plain fair-scheduled server most tests use; no
// result cache, so every submission executes.
func newTestServer(t *testing.T, workers, backlog int) (*Server, *httptest.Server) {
	t.Helper()
	return newSchedServer(t, sched.NewFair(sched.FairConfig{Workers: workers, MaxQueuePerTenant: backlog}), nil)
}

// newCacheServer adds a result cache on top of newTestServer.
func newCacheServer(t *testing.T, workers, backlog int) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := sched.NewResultCache(filepath.Join(t.TempDir(), "cache.log"), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return newSchedServer(t, sched.NewFair(sched.FairConfig{Workers: workers, MaxQueuePerTenant: backlog}), cache)
}

func submitJSON(t *testing.T, ts *httptest.Server, spec string) job.Snapshot {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e.Error)
	}
	var snap job.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID == "" {
		t.Fatal("submit: empty job ID")
	}
	return snap
}

func getJob(t *testing.T, ts *httptest.Server, id string) job.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap job.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func waitState(t *testing.T, ts *httptest.Server, id string, want job.State) job.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		snap := getJob(t, ts, id)
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return job.Snapshot{}
}

// streamCircuit fetches the NDJSON circuit and decodes it into steps.
func streamCircuit(t *testing.T, ts *httptest.Server, id string) []graph.Step {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/circuit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("circuit: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("circuit: content type %q", ct)
	}
	var steps []graph.Step
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var line struct {
			Edge int64 `json:"edge"`
			From int64 `json:"from"`
			To   int64 `json:"to"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		steps = append(steps, graph.Step{Edge: line.Edge, From: line.From, To: line.To})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return steps
}

// TestConcurrentJobsSingleWorker is the acceptance scenario: two jobs
// submitted concurrently against a worker pool of 1 both complete, and
// each streamed circuit round-trips into []graph.Step and verifies.
func TestConcurrentJobsSingleWorker(t *testing.T) {
	_, ts := newTestServer(t, 1, 8)

	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":8,"height":6},"parts":3}`)
	b := submitJSON(t, ts, `{"generator":{"family":"cliques","k":4,"c":5},"parts":2,"mode":"proposed"}`)

	snapA := waitState(t, ts, a.ID, job.StateDone)
	snapB := waitState(t, ts, b.ID, job.StateDone)
	if snapA.Report == nil || snapB.Report == nil {
		t.Fatal("done jobs must carry a report")
	}
	if snapA.Report.BSP.Supersteps == 0 {
		t.Fatal("report should have BSP metrics")
	}

	ga := gen.Torus(8, 6)
	if err := euler.Verify(ga, streamCircuit(t, ts, a.ID)); err != nil {
		t.Fatalf("job A circuit: %v", err)
	}
	gb := gen.RingOfCliques(4, 5)
	if err := euler.Verify(gb, streamCircuit(t, ts, b.ID)); err != nil {
		t.Fatalf("job B circuit: %v", err)
	}
}

// TestCancelQueuedJob holds the single worker inside job A, cancels the
// queued job B, and then shows the slot is returned: B never runs, and
// a third job completes after A is released.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	release := make(chan struct{})
	entered := make(chan string, 8)
	s.beforeRun = func(j *job.Job) {
		entered <- j.ID
		<-release
	}

	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	if got := <-entered; got != a.ID {
		t.Fatalf("worker entered %s, want %s", got, a.ID)
	}

	b := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d, want 200", resp.StatusCode)
	}
	if snap := getJob(t, ts, b.ID); snap.State != job.StateCancelled {
		t.Fatalf("job B state %s, want cancelled", snap.State)
	}

	close(release)
	waitState(t, ts, a.ID, job.StateDone)

	// The worker slot is free again: a third job runs to completion,
	// and the cancelled job never entered the engine.
	c := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	waitState(t, ts, c.ID, job.StateDone)
	for {
		select {
		case id := <-entered:
			if id == b.ID {
				t.Fatal("cancelled job must not run")
			}
			continue
		default:
		}
		break
	}
}

// TestCancelRunningJob cancels mid-run; the streaming emit path aborts
// and the job lands in cancelled.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	release := make(chan struct{})
	s.beforeRun = func(j *job.Job) { <-release }

	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":6,"height":6}}`)
	waitState(t, ts, a.ID, job.StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: status %d, want 202", resp.StatusCode)
	}
	close(release)
	waitState(t, ts, a.ID, job.StateCancelled)

	// Cancelling a cancelled job is idempotent; cancelling a done job
	// conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-cancel cancelled: status %d, want 200", resp.StatusCode)
	}
	b := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	waitState(t, ts, b.ID, job.StateDone)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel done job: status %d, want 409", resp.StatusCode)
	}
}

// TestUploadJob round-trips an EULGRPH1 body through the upload
// endpoint and verifies the streamed circuit against the same graph.
func TestUploadJob(t *testing.T) {
	_, ts := newTestServer(t, 2, 8)

	g := gen.Torus(7, 5)
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?parts=3&seed=7", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var snap job.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if !snap.Spec.Uploaded || snap.Spec.Parts != 3 || snap.Spec.Seed != 7 {
		t.Fatalf("upload spec not captured: %+v", snap.Spec)
	}
	waitState(t, ts, snap.ID, job.StateDone)
	if err := euler.Verify(g, streamCircuit(t, ts, snap.ID)); err != nil {
		t.Fatalf("uploaded job circuit: %v", err)
	}
}

// TestSpillOptionIgnored: where path bodies live is derived from the
// source, so a client still sending the retired spill option, as a query
// parameter on an upload or a field of a JSON spec, is accepted and gets
// the same circuit bytes as a submission without it.
func TestSpillOptionIgnored(t *testing.T) {
	_, ts := newTestServer(t, 2, 8)
	g := gen.Torus(9, 5)
	circuit := func(snap job.Snapshot, status int) []byte {
		t.Helper()
		if status != http.StatusAccepted {
			t.Fatalf("submit: status %d, want 202", status)
		}
		waitState(t, ts, snap.ID, job.StateDone)
		return rawCircuit(t, ts, snap.ID)
	}
	want := circuit(uploadGraph(t, ts, g, "?parts=3"))
	if got := circuit(uploadGraph(t, ts, g, "?parts=3&spill=true")); !bytes.Equal(got, want) {
		t.Fatal("upload with ?spill=true streamed a different circuit")
	}

	const spec = `{"generator":{"family":"torus","width":9,"height":5},"parts":3%s}`
	want = circuit(submitJSON(t, ts, fmt.Sprintf(spec, "")), http.StatusAccepted)
	if got := circuit(submitJSON(t, ts, fmt.Sprintf(spec, `,"spill":true`)), http.StatusAccepted); !bytes.Equal(got, want) {
		t.Fatal(`JSON spec with "spill":true streamed a different circuit`)
	}
}

// TestTenantOf pins the identity derivation: short names pass through,
// over-long names digest (no silent prefix merging), API keys digest,
// and no header means the default tenant.
func TestTenantOf(t *testing.T) {
	mk := func(header, value string) *http.Request {
		req, _ := http.NewRequest(http.MethodPost, "/v1/jobs", nil)
		if header != "" {
			req.Header.Set(header, value)
		}
		return req
	}
	if got := tenantOf(mk("X-Tenant", "alice")); got != "alice" {
		t.Fatalf("short tenant = %q", got)
	}
	long := strings.Repeat("org/acme/teams/platform/", 4) // 96 bytes
	a := tenantOf(mk("X-Tenant", long+"ingest-a"))
	b := tenantOf(mk("X-Tenant", long+"ingest-b"))
	if a == b {
		t.Fatal("distinct over-long tenants merged into one identity")
	}
	if !strings.HasPrefix(a, "tenant-") || len(a) > 64 {
		t.Fatalf("long tenant digest = %q", a)
	}
	key := tenantOf(mk("X-API-Key", "sk-very-secret"))
	if !strings.HasPrefix(key, "key-") || strings.Contains(key, "secret") {
		t.Fatalf("api-key tenant = %q must be a digest", key)
	}
	if got := tenantOf(mk("", "")); got != sched.DefaultTenant {
		t.Fatalf("default tenant = %q", got)
	}
}

// TestDedupAcrossSubmissionForms: the same graph with the same solve
// options reaching the server as a generator spec and as an EULGRPH1
// upload is one execution — the second submission is a cache hit whose
// circuit stream is byte-identical.
func TestDedupAcrossSubmissionForms(t *testing.T) {
	s, ts := newCacheServer(t, 2, 8)

	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":7,"height":5},"parts":3,"seed":7}`)
	a = waitState(t, ts, a.ID, job.StateDone)
	rawA := fetchBody(t, ts.URL+"/v1/jobs/"+a.ID+"/circuit")

	g := gen.Torus(7, 5)
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?parts=3&seed=7", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var b job.Snapshot
	json.NewDecoder(resp.Body).Decode(&b)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	// A cache hit completes at submission: the response snapshot is
	// already done, with the circuit length filled in.
	if b.State != job.StateDone || b.Steps != a.Steps {
		t.Fatalf("upload snapshot = %s with %d steps, want done with %d", b.State, b.Steps, a.Steps)
	}
	rawB := fetchBody(t, ts.URL+"/v1/jobs/"+b.ID+"/circuit")
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("cached circuit differs from the computed one")
	}

	m := s.MetricsSnapshot()
	if m["jobs_started"].(int64) != 1 {
		t.Fatalf("jobs_started = %v, want 1", m["jobs_started"])
	}

	// Different solve options are a different content address.
	c := submitJSON(t, ts, `{"generator":{"family":"torus","width":7,"height":5},"parts":4,"seed":7}`)
	waitState(t, ts, c.ID, job.StateDone)
	if m := s.MetricsSnapshot(); m["jobs_started"].(int64) != 2 {
		t.Fatalf("jobs_started after option change = %v, want 2", m["jobs_started"])
	}
}

// TestCoalescedDuplicateRidesLeader: a duplicate submitted while its
// twin is still executing never queues or runs; it completes from the
// leader's commit with an identical stream.
func TestCoalescedDuplicateRidesLeader(t *testing.T) {
	s, ts := newCacheServer(t, 1, 8)
	release := make(chan struct{})
	s.beforeRun = func(j *job.Job) { <-release }

	const spec = `{"generator":{"family":"torus","width":6,"height":4},"parts":2}`
	a := submitJSON(t, ts, spec)
	waitState(t, ts, a.ID, job.StateRunning)
	b := submitJSON(t, ts, spec)
	if b.State != job.StateQueued {
		t.Fatalf("duplicate state = %s, want queued (riding the leader)", b.State)
	}
	close(release)
	waitState(t, ts, a.ID, job.StateDone)
	waitState(t, ts, b.ID, job.StateDone)
	rawA := fetchBody(t, ts.URL+"/v1/jobs/"+a.ID+"/circuit")
	rawB := fetchBody(t, ts.URL+"/v1/jobs/"+b.ID+"/circuit")
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("coalesced circuit differs from the leader's")
	}
	m := s.MetricsSnapshot()
	if m["jobs_started"].(int64) != 1 || m["coalesced_jobs"].(int64) != 1 {
		t.Fatalf("started=%v coalesced=%v, want 1/1", m["jobs_started"], m["coalesced_jobs"])
	}
}

// TestCoalesceOverflowRejects: duplicates beyond the per-flight
// follower bound are rejected with 429 rather than accumulating
// unbounded jobs outside the queue quotas.
func TestCoalesceOverflowRejects(t *testing.T) {
	cache, err := sched.NewResultCache(filepath.Join(t.TempDir(), "cache.log"), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	cache.MaxFollowers = 1
	s, ts := newSchedServer(t, sched.NewFair(sched.FairConfig{Workers: 1, MaxQueuePerTenant: 8}), cache)
	release := make(chan struct{})
	s.beforeRun = func(j *job.Job) { <-release }

	const spec = `{"generator":{"family":"torus","width":6,"height":4}}`
	a := submitJSON(t, ts, spec)
	waitState(t, ts, a.ID, job.StateRunning)
	submitJSON(t, ts, spec) // the one allowed follower

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap duplicate: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overflow 429 without a Retry-After header")
	}
	if s.jobs.Len() != 2 {
		t.Fatalf("store len = %d after overflow bounce, want 2", s.jobs.Len())
	}
	close(release)
	waitState(t, ts, a.ID, job.StateDone)
}

// TestCancelledLeaderPromotesFollower: cancelling the executing leader
// promotes the waiting duplicate, which then runs to completion
// itself.
func TestCancelledLeaderPromotesFollower(t *testing.T) {
	s, ts := newCacheServer(t, 1, 8)
	release := make(chan struct{})
	s.beforeRun = func(j *job.Job) { <-release }

	const spec = `{"generator":{"family":"torus","width":6,"height":6}}`
	a := submitJSON(t, ts, spec)
	waitState(t, ts, a.ID, job.StateRunning)
	b := submitJSON(t, ts, spec)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	waitState(t, ts, a.ID, job.StateCancelled)
	waitState(t, ts, b.ID, job.StateDone)
	g := gen.Torus(6, 6)
	if err := euler.Verify(g, streamCircuit(t, ts, b.ID)); err != nil {
		t.Fatalf("promoted follower circuit: %v", err)
	}
}

// TestJSONContentTypeWithCharset ensures a spec posted with
// "application/json; charset=utf-8" is routed to the JSON path, not
// treated as a binary upload.
func TestJSONContentTypeWithCharset(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json; charset=utf-8",
		strings.NewReader(`{"generator":{"family":"torus","width":4,"height":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	var snap job.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("charset content type: status %d, want 202", resp.StatusCode)
	}
	waitState(t, ts, snap.ID, job.StateDone)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)

	post := func(body, ct string) int {
		resp, err := http.Post(ts.URL+"/v1/jobs", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"generator":{"family":"petersen"}}`, "application/json"); code != http.StatusBadRequest {
		t.Fatalf("bad family: status %d", code)
	}
	if code := post(`{"generator":{"family":"torus"},"mode":"quantum"}`, "application/json"); code != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d", code)
	}
	if code := post("not a graph file at all", "application/octet-stream"); code != http.StatusBadRequest {
		t.Fatalf("bad magic: status %d", code)
	}
	// A tiny body declaring absurd counts must be rejected up front,
	// not allocated at run time; over-cap counts are a 413, not a 400.
	huge := make([]byte, 8, 24)
	copy(huge, "EULGRPH1")
	huge = binary.AppendUvarint(huge, 1<<40) // vertices
	huge = binary.AppendUvarint(huge, 0)     // edges
	if code := post(string(huge), "application/octet-stream"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized declared counts: status %d", code)
	}
	// Counts at the cap but a body far too small to hold them must
	// also bounce, or a 12-byte request buys a gigabyte allocation.
	small := make([]byte, 8, 24)
	copy(small, "EULGRPH1")
	small = binary.AppendUvarint(small, 100)
	small = binary.AppendUvarint(small, uint64(job.MaxUploadEdges))
	if code := post(string(small), "application/octet-stream"); code != http.StatusBadRequest {
		t.Fatalf("edge count exceeding body size: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/deadbeef/circuit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown circuit: status %d", resp.StatusCode)
	}
}

// TestBacklogFullRejectsSubmission: a tenant at its queue quota is
// refused with 429, a Retry-After header and the structured error body,
// and leaves nothing behind — no job in the store, no job directory.
// Uploads are refused by the pre-decode admission check, before their
// body is saved: the short body, whose header declares more edges than
// it carries, would answer 400 if it were read first.
func TestBacklogFullRejectsSubmission(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(j *job.Job) { <-release }

	// The first job occupies the single worker; the second fills the
	// tenant's one queue slot; everything after that must bounce.
	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	waitState(t, ts, a.ID, job.StateRunning)
	submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	dirs, err := filepath.Glob(filepath.Join(s.dataDir, "job-*"))
	if err != nil {
		t.Fatal(err)
	}

	var upload bytes.Buffer
	if err := graph.Write(&upload, gen.Torus(5, 4)); err != nil {
		t.Fatal(err)
	}
	short := append([]byte("EULGRPH1"), appendUvarint(appendUvarint(nil, 20), 1000)...)
	for _, c := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json spec", "application/json", []byte(`{"generator":{"family":"torus"}}`)},
		{"upload", "application/octet-stream", upload.Bytes()},
		{"short upload", "application/octet-stream", short},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs?parts=2", c.contentType, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", c.name, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s: 429 without a Retry-After header", c.name)
		}
		if e.Code != "throttled" || e.RetryAfterSeconds < 1 || e.Error == "" {
			t.Fatalf("%s: structured 429 body = %+v", c.name, e)
		}
	}
	// The bounced jobs must not linger in the store or on disk.
	if s.jobs.Len() != 2 {
		t.Fatalf("store len = %d after bounce, want 2", s.jobs.Len())
	}
	after, err := filepath.Glob(filepath.Join(s.dataDir, "job-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(dirs) {
		t.Fatalf("job dirs %v after bounce, want %v", after, dirs)
	}
}

// TestFIFOFallbackRejectsLikeLegacy: a fair scheduler capped by
// MaxQueueTotal reproduces the single-backlog behavior (any tenant fills
// the shared queue) while still answering with the structured throttle
// response.
func TestFIFOFallbackRejectsLikeLegacy(t *testing.T) {
	s, ts := newSchedServer(t, sched.NewFair(sched.FairConfig{Workers: 1, MaxQueueTotal: 1}), nil)
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(j *job.Job) { <-release }

	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	waitState(t, ts, a.ID, job.StateRunning)
	submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)

	// A different tenant shares the global backlog, so it bounces too —
	// the pre-scheduler behavior.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"generator":{"family":"torus"}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "someone-else")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full shared backlog: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shared-backlog 429 without a Retry-After header")
	}
}

// TestTenantIsolation: one tenant at its queue quota does not block
// another tenant's submissions under the fair scheduler.
func TestTenantIsolation(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(j *job.Job) { <-release }

	post := func(tenant string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"generator":{"family":"torus","width":4,"height":4}}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Greedy: one running + one queued fills its quota; the third bounces.
	if code := post("greedy"); code != http.StatusAccepted {
		t.Fatalf("greedy #1: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.sched.Running() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if code := post("greedy"); code != http.StatusAccepted {
		t.Fatalf("greedy #2: %d", code)
	}
	if code := post("greedy"); code != http.StatusTooManyRequests {
		t.Fatalf("greedy #3: %d, want 429", code)
	}
	// The other tenant still has its own quota.
	if code := post("polite"); code != http.StatusAccepted {
		t.Fatalf("polite tenant bounced with %d while greedy was throttled", code)
	}
	if code := post(""); code != http.StatusAccepted {
		t.Fatalf("default tenant bounced with %d while greedy was throttled", code)
	}
	// An invalid class is a client error, not a scheduler decision.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"generator":{"family":"torus","width":4,"height":4}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Class", "warp-speed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad class: %d, want 400", resp.StatusCode)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, ts := newCacheServer(t, 2, 8)

	submit := func(tenant string) job.Snapshot {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"generator":{"family":"torus","width":6,"height":4}}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit as %s: status %d", tenant, resp.StatusCode)
		}
		var snap job.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a := submit("alice")
	waitState(t, ts, a.ID, job.StateDone)
	b := submit("bob") // identical spec: a cache hit attributed to bob
	waitState(t, ts, b.ID, job.StateDone)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Submitted  int64                     `json:"jobs_submitted"`
		Started    int64                     `json:"jobs_started"`
		Completed  int64                     `json:"jobs_completed"`
		Steps      int64                     `json:"circuit_steps"`
		PhaseNanos map[string]int64          `json:"phase_nanos"`
		Tenants    map[string]map[string]any `json:"tenants"`
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 2 || m.Completed != 2 {
		t.Fatalf("metrics counters: %+v", m)
	}
	if m.Started != 1 {
		t.Fatalf("jobs_started = %d, want 1 (second submission was a cache hit)", m.Started)
	}
	if m.Steps != 2*6*4*2 { // torus has 2wh edges; both jobs report full circuits
		t.Fatalf("circuit_steps = %d, want %d", m.Steps, 2*6*4*2)
	}
	if m.PhaseNanos["wall"] <= 0 {
		t.Fatalf("phase wall time not aggregated: %+v", m.PhaseNanos)
	}

	// Satellite contract: per-tenant gauges and the cache counters are
	// always present in the snapshot.
	var flat map[string]any
	if err := json.Unmarshal(body, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tenants", "cache_hits", "cache_misses", "coalesced_jobs", "cache_entries", "cache_bytes", "jobs_rejected"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("metrics snapshot missing %q", key)
		}
	}
	if flat["cache_hits"].(float64) != 1 || flat["cache_misses"].(float64) != 1 {
		t.Fatalf("cache counters: hits=%v misses=%v, want 1/1", flat["cache_hits"], flat["cache_misses"])
	}
	// Tenant gauges exist while the tenant has live state; both jobs
	// are terminal here, so the map may legitimately be empty — what
	// must hold is the per-tenant shape when a tenant is active.
	for name, gauges := range m.Tenants {
		for _, key := range []string{"queue_depth", "running", "rejected"} {
			if _, ok := gauges[key]; !ok {
				t.Errorf("tenant %s gauges missing %q: %+v", name, key, gauges)
			}
		}
	}
}

// TestPerTenantGaugesWhileActive pins the per-tenant gauge shape with
// a job actually running.
func TestPerTenantGaugesWhileActive(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(j *job.Job) { <-release }

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"generator":{"family":"torus","width":4,"height":4}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap job.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	waitState(t, ts, snap.ID, job.StateRunning)

	m := s.MetricsSnapshot()
	tenants, ok := m["tenants"].(map[string]map[string]any)
	if !ok {
		t.Fatalf("tenants gauge has unexpected shape: %T", m["tenants"])
	}
	alice, ok := tenants["alice"]
	if !ok {
		t.Fatalf("active tenant alice missing from gauges: %+v", tenants)
	}
	if alice["running"].(int) != 1 || alice["queue_depth"].(int) != 0 {
		t.Fatalf("alice gauges = %+v, want running=1 queue_depth=0", alice)
	}
}

// TestListJobs exercises GET /v1/jobs.
func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, 2, 8)
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		snap := submitJSON(t, ts, fmt.Sprintf(`{"generator":{"family":"torus","width":4,"height":%d}}`, 3+i))
		ids[snap.ID] = true
	}
	for id := range ids {
		waitState(t, ts, id, job.StateDone)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []job.Snapshot `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if !ids[j.ID] {
			t.Fatalf("unexpected job %s in listing", j.ID)
		}
	}
}

// lateFailRunner solves two disjoint triangles whatever was submitted, so
// Phase 3 fails after it has already streamed the first triangle into the
// job's sink (a generator job is not precondition-checked).
func lateFailRunner(ctx context.Context, _ graph.Source, spec ieuler.SolveSpec, emit func(graph.Step) error) (*ieuler.RunReport, *ieuler.RunRecord, error) {
	g := graph.FromEdges(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	spec.Assign = &partition.Assignment{Parts: 2, Of: []int32{0, 0, 0, 1, 1, 1}}
	return ieuler.Solve(ctx, g, spec, emit)
}

// TestUnrollFailureAfterEmissionFailsJob: Phase 3 streams steps into the
// sink as it walks, so a failure it detects late arrives after a prefix of
// the circuit has been appended.  The job must end FAILED with no circuit
// to serve, and nothing may be published to the result cache: an identical
// resubmission runs again.
func TestUnrollFailureAfterEmissionFailsJob(t *testing.T) {
	cache, err := sched.NewResultCache(filepath.Join(t.TempDir(), "cache.log"), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.NewFair(sched.FairConfig{Workers: 1, MaxQueuePerTenant: 4})
	s := New(Config{Store: job.NewStore(50), Sched: sc, Cache: cache, DataDir: t.TempDir(), Runner: lateFailRunner})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sc.Drain(ctx)
		cache.Close()
	})

	const spec = `{"generator":{"family":"torus","width":6,"height":4},"parts":2}`
	for attempt := 1; attempt <= 2; attempt++ {
		snap := submitJSON(t, ts, spec)
		if snap.State == job.StateDone {
			t.Fatalf("attempt %d answered from the cache", attempt)
		}
		failed := waitState(t, ts, snap.ID, job.StateFailed)
		if !strings.Contains(failed.Error, "disconnected") {
			t.Fatalf("attempt %d failed with %q, want the disconnected-input error", attempt, failed.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/circuit")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("circuit of a failed job: status %d, want 409", resp.StatusCode)
		}
	}
	var m map[string]any
	if err := json.Unmarshal(fetchBody(t, ts.URL+"/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	if m["cache_entries"].(float64) != 0 || m["jobs_started"].(float64) != 2 || m["cache_hits"].(float64) != 0 {
		t.Fatalf("cache_entries=%v jobs_started=%v cache_hits=%v, want 0/2/0", m["cache_entries"], m["jobs_started"], m["cache_hits"])
	}
}
