package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	euler "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/sched"
	"repro/internal/service/job"
)

// newOOCServer wires a server whose memory limit is so low that every
// upload with an edge solves through the paged CSR, with a page budget
// at oocgraph's two-page floor, small enough to force eviction.
func newOOCServer(t *testing.T, workers int, cached bool) (*Server, *httptest.Server) {
	t.Helper()
	var cache *sched.ResultCache
	if cached {
		var err error
		cache, err = sched.NewResultCache(filepath.Join(t.TempDir(), "cache.log"), 64<<20)
		if err != nil {
			t.Fatal(err)
		}
	}
	sc := sched.NewFair(sched.FairConfig{Workers: workers, MaxQueuePerTenant: 8})
	s := New(Config{
		Store:   job.NewStore(50),
		Sched:   sc,
		Cache:   cache,
		DataDir: t.TempDir(),
	})
	s.memLimit = inMemoryBytesPerEdge
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

// TestPagedInputRule pins when an upload solves paged: never with the
// memory limit unset, and from the first edge count whose estimated
// in-memory solve exceeds the limit.
func TestPagedInputRule(t *testing.T) {
	s := New(Config{Store: job.NewStore(1), DataDir: t.TempDir()})
	if limit := debug.SetMemoryLimit(-1); s.memLimit != limit {
		t.Fatalf("memLimit = %d, want the process limit %d", s.memLimit, limit)
	}
	upload := func(edges int64) job.Spec {
		return job.Spec{Kind: jobkind.DefaultName, Uploaded: true, DeclaredEdges: edges}
	}

	s.memLimit = math.MaxInt64 // GOMEMLIMIT unset
	if s.pagedInput(upload(job.MaxUploadEdges)) {
		t.Fatal("an upload paged with no memory limit")
	}
	if got := s.pageBytes(); got != 64<<20 {
		t.Fatalf("page budget without a limit = %d, want 64 MiB", got)
	}

	// GOMEMLIMIT=24MiB: the threshold is 24 MiB / 200 B = 125 829 edges,
	// with a quarter of the limit as pages.
	s.memLimit = 24 << 20
	if s.pagedInput(upload(125_829)) || !s.pagedInput(upload(125_830)) {
		t.Fatalf("decision at 125 829 / 125 830 edges = %v / %v, want false / true",
			s.pagedInput(upload(125_829)), s.pagedInput(upload(125_830)))
	}
	if got := s.pageBytes(); got != 6291456 {
		t.Fatalf("page budget under 24 MiB = %d, want 6291456", got)
	}
	for name, spec := range map[string]job.Spec{
		"generator": {Kind: jobkind.DefaultName, DeclaredEdges: 1 << 30},
		"postman":   {Kind: "postman", Uploaded: true, DeclaredEdges: 1 << 30},
		"delta":     {Kind: jobkind.DefaultName, Uploaded: true, DeclaredEdges: 1 << 30, Base: "x"},
	} {
		if s.pagedInput(spec) {
			t.Errorf("%s job paged", name)
		}
	}
	s.local = false // a cluster coordinator ships CSR slices
	if s.pagedInput(upload(1 << 30)) {
		t.Error("a cluster-run upload paged")
	}
}

// TestPagedUploadNotBuiltAtSubmit: a cached upload that will solve paged
// is fingerprinted from its file, so no graph rides to its worker.
func TestPagedUploadNotBuiltAtSubmit(t *testing.T) {
	s, _ := newOOCServer(t, 1, true)
	g := gen.Torus(6, 5) // far under keepGraphMaxEdges
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	spec := job.Spec{Uploaded: true, GraphFile: path, DeclaredEdges: g.NumEdges()}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	in, _, err := s.resolveInput(context.Background(), sched.DefaultTenant, &spec)
	if err != nil {
		t.Fatal(err)
	}
	if in.graph != nil {
		t.Fatal("the paged upload was built in memory at submit")
	}
	if want := sched.FingerprintGraph(g, spec.FingerprintOptions()); in.fp != want {
		t.Fatalf("streamed fingerprint %s, want the graph's %s", in.fp, want)
	}
}

func uploadGraph(t *testing.T, ts *httptest.Server, g *graph.Graph, query string) (job.Snapshot, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap job.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap)
	return snap, resp.StatusCode
}

// TestOutOfCoreJob runs an upload end-to-end through the paged-CSR
// engine path and requires the streamed circuit to be step-identical to
// the in-memory solve of the same graph, with paging activity visible
// in /v1/metrics.
func TestOutOfCoreJob(t *testing.T) {
	_, ts := newOOCServer(t, 2, false)

	g := gen.RingOfCliques(6, 9)
	snap, code := uploadGraph(t, ts, g, "?parts=4&seed=3")
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	waitState(t, ts, snap.ID, job.StateDone)

	var want []graph.Step
	if _, err := euler.FindCircuitStream(g, func(s graph.Step) error {
		want = append(want, s)
		return nil
	}, euler.WithPartitions(4), euler.WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	got := streamCircuit(t, ts, snap.ID)
	if len(got) != len(want) {
		t.Fatalf("out-of-core circuit has %d steps, in-memory %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: out-of-core %+v, in-memory %+v", i, got[i], want[i])
		}
	}
	if err := euler.Verify(g, got); err != nil {
		t.Fatal(err)
	}

	var m map[string]any
	if err := json.Unmarshal(fetchBody(t, ts.URL+"/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"graph_live_bytes", "graph_pages_resident", "graph_page_faults"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q", key)
		}
	}
	if faults, _ := m["graph_page_faults"].(float64); faults < 1 {
		t.Fatalf("graph_page_faults = %v, want at least one (the solve read adjacency through the pager)", m["graph_page_faults"])
	}
}

// TestOutOfCoreNonEulerianUpload: the precondition check must run
// against the paged source and fail the job with the same class of error
// the in-memory path gives.
func TestOutOfCoreNonEulerianUpload(t *testing.T) {
	_, ts := newOOCServer(t, 1, false)

	b := graph.NewBuilder(3, 2) // path 0-1-2: odd endpoints
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	snap, code := uploadGraph(t, ts, b.Build(), "")
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := getJob(t, ts, snap.ID)
		if s.State == job.StateFailed {
			if !strings.Contains(s.Error, "odd degree") {
				t.Fatalf("error = %q, want an odd-degree rejection", s.Error)
			}
			break
		}
		if s.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state %s (error %q), want failed", s.State, s.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOutOfCoreCacheDedup: an upload solved out of core and the same
// graph submitted as a generator spec share one fingerprint — the
// second submission is a pure cache hit with a byte-identical circuit.
func TestOutOfCoreCacheDedup(t *testing.T) {
	_, ts := newOOCServer(t, 2, true)

	g := gen.Torus(7, 5)
	up, code := uploadGraph(t, ts, g, "?parts=3&seed=7")
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	waitState(t, ts, up.ID, job.StateDone)
	rawUp := fetchBody(t, ts.URL+"/v1/jobs/"+up.ID+"/circuit")

	b := submitJSON(t, ts, `{"generator":{"family":"torus","width":7,"height":5},"parts":3,"seed":7}`)
	snap := getJob(t, ts, b.ID)
	if snap.State != job.StateDone {
		t.Fatalf("generator resubmission state %s, want an immediate cache hit", snap.State)
	}
	rawGen := fetchBody(t, ts.URL+"/v1/jobs/"+b.ID+"/circuit")
	if !bytes.Equal(rawUp, rawGen) {
		t.Fatalf("cache-hit circuit differs from out-of-core original (%d vs %d bytes)", len(rawUp), len(rawGen))
	}
}

// TestUploadTooLargeEnvelope pins the structured 413 envelope: over-cap
// declared counts and over-limit bodies both answer 413 with the
// payload_too_large code before the body is buffered anywhere.
func TestUploadTooLargeEnvelope(t *testing.T) {
	sc := sched.NewFair(sched.FairConfig{Workers: 1, MaxQueuePerTenant: 4})
	s := New(Config{
		Store:          job.NewStore(10),
		Sched:          sc,
		DataDir:        t.TempDir(),
		MaxUploadBytes: 512,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sc.Drain(ctx)
	})

	post := func(body []byte) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	// Declared counts over the per-server caps: rejected from the
	// 20-byte header alone.
	var hdr bytes.Buffer
	hdr.WriteString("EULGRPH1")
	hdr.Write(appendUvarint(nil, uint64(job.MaxUploadVertices)+1))
	hdr.Write(appendUvarint(nil, 0))
	status, e := post(hdr.Bytes())
	if status != http.StatusRequestEntityTooLarge || e.Code != codePayloadTooLarge {
		t.Fatalf("over-cap counts: status %d code %q, want 413 %q", status, e.Code, codePayloadTooLarge)
	}

	// A body over MaxUploadBytes: the copy hits the reader's limit and
	// the handler answers 413, not a truncated save.
	g := gen.Torus(16, 16) // encodes well past 512 bytes
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	status, e = post(buf.Bytes())
	if status != http.StatusRequestEntityTooLarge || e.Code != codePayloadTooLarge {
		t.Fatalf("over-limit body: status %d code %q, want 413 %q", status, e.Code, codePayloadTooLarge)
	}
}

// TestBigUploadStreamedFingerprint: an upload over keepGraphMaxEdges is
// fingerprinted straight from disk (no CSR build at submit); the same
// graph arriving as a generator spec must land on the same fingerprint
// and coalesce or hit in the cache.
func TestBigUploadStreamedFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a ~70k-edge graph")
	}
	_, ts := newCacheServer(t, 2, 8)

	// 2*200*170 = 68,000 edges > keepGraphMaxEdges (65,536).
	a := submitJSON(t, ts, `{"generator":{"family":"torus","width":200,"height":170},"parts":4,"seed":1}`)
	a = waitState(t, ts, a.ID, job.StateDone)

	g := gen.Torus(200, 170)
	snap, code := uploadGraph(t, ts, g, "?parts=4&seed=1")
	if code != http.StatusAccepted {
		t.Fatalf("upload: status %d", code)
	}
	// The streamed fingerprint matched the in-memory one: the upload is
	// an instant cache hit, done at the submission response already.
	if snap.State != job.StateDone || snap.Steps != a.Steps {
		t.Fatalf("big upload snapshot = %s with %d steps, want cache-hit done with %d", snap.State, snap.Steps, a.Steps)
	}
}

// appendUvarint is binary.AppendUvarint without the import dance in the
// table-driven bodies above.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
