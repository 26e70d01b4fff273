package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	euler "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/service/job"
)

// newDeltaServer wires a server with both the result cache and the
// delta store, the configuration delta submissions require.
func newDeltaServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	cache, err := sched.NewResultCache(filepath.Join(t.TempDir(), "cache.log"), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	sc := sched.NewFair(sched.FairConfig{Workers: workers, MaxQueuePerTenant: 32})
	s := New(Config{
		Store:   job.NewStore(50),
		Sched:   sc,
		Cache:   cache,
		Deltas:  sched.NewDeltaStore(64 << 20),
		DataDir: t.TempDir(),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cache.Close()
	})
	return s, ts
}

// postJSON submits a body and returns the raw response status plus the
// decoded error body (zero-valued on 2xx).
func postJSON(t *testing.T, ts *httptest.Server, body string) (int, errorBody, job.Snapshot) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var snap job.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, errorBody{}, snap
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, e, job.Snapshot{}
}

// patchedCliques rebuilds gen.RingOfCliques(k, c) with the given extra
// edges appended, mirroring how the server applies an add-only diff.
func patchedCliques(k, c int64, add [][2]int64) *graph.Graph {
	g := gen.RingOfCliques(k, c)
	n := g.NumVertices()
	b := graph.NewBuilder(n, int(g.NumEdges())+len(add))
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for _, p := range add {
		b.AddEdge(p[0], p[1])
	}
	return b.Build()
}

// TestDeltaSubmission walks the full delta flow: solve a base, submit a
// one-edge diff against its fingerprint, and check the delta job reuses
// clean partitions while producing exactly the circuit a from-scratch
// solve of the patched graph yields.  A second diff chained off the
// delta's own fingerprint must work the same way.
func TestDeltaSubmission(t *testing.T) {
	_, ts := newDeltaServer(t, 2)

	base := submitJSON(t, ts, `{"generator":{"family":"cliques","k":4,"c":5},"parts":2}`)
	baseSnap := waitState(t, ts, base.ID, job.StateDone)
	if baseSnap.Fingerprint == "" {
		t.Fatal("done job must report its fingerprint")
	}
	if baseSnap.Delta {
		t.Fatal("base job must not be marked delta")
	}

	// Add two parallel copies of an existing intra-clique edge: parity
	// and connectivity are preserved by construction.
	g0 := gen.RingOfCliques(4, 5)
	e0 := g0.Edge(0)
	diff := [][2]int64{{e0.U, e0.V}, {e0.U, e0.V}}

	status, _, delta := postJSON(t, ts, fmt.Sprintf(
		`{"base":%q,"diff":{"add":[[%d,%d],[%d,%d]]}}`, baseSnap.Fingerprint, e0.U, e0.V, e0.U, e0.V))
	if status != http.StatusAccepted {
		t.Fatalf("delta submit: status %d", status)
	}
	deltaSnap := waitState(t, ts, delta.ID, job.StateDone)
	if !deltaSnap.Delta {
		t.Fatal("delta job must be marked delta")
	}
	if deltaSnap.ReusedParts == 0 {
		t.Fatal("partition-local edit must reuse at least one merge-tree node")
	}
	if deltaSnap.Spec.Parts != 2 {
		t.Fatalf("delta job inherited parts %d, want the base's 2", deltaSnap.Spec.Parts)
	}

	patched := patchedCliques(4, 5, diff)
	var want []graph.Step
	if _, err := euler.FindCircuitStream(patched, func(st graph.Step) error {
		want = append(want, st)
		return nil
	}, euler.WithPartitions(2)); err != nil {
		t.Fatal(err)
	}
	got := streamCircuit(t, ts, delta.ID)
	if len(got) != len(want) {
		t.Fatalf("delta circuit has %d steps, from-scratch solve %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: delta %+v, from-scratch %+v", i, got[i], want[i])
		}
	}
	// A full upload of the patched graph names the delta's result: the
	// same fingerprint, served from the cache.
	full, code := uploadGraph(t, ts, patched, "?parts=2")
	if code != http.StatusAccepted {
		t.Fatalf("full upload of the patched graph: status %d", code)
	}
	if full.Fingerprint != deltaSnap.Fingerprint || full.State != job.StateDone {
		t.Fatalf("full upload of the patched graph: fingerprint %q (%s), want a cache hit on the delta fingerprint %q",
			full.Fingerprint, full.State, deltaSnap.Fingerprint)
	}

	// Chain: the delta's own fingerprint is a valid base.
	if deltaSnap.Fingerprint == "" || deltaSnap.Fingerprint == baseSnap.Fingerprint {
		t.Fatalf("delta fingerprint %q must be fresh", deltaSnap.Fingerprint)
	}
	e1 := g0.Edge(1)
	status, _, chained := postJSON(t, ts, fmt.Sprintf(
		`{"base":%q,"diff":{"add":[[%d,%d],[%d,%d]]}}`, deltaSnap.Fingerprint, e1.U, e1.V, e1.U, e1.V))
	if status != http.StatusAccepted {
		t.Fatalf("chained delta submit: status %d", status)
	}
	chainedSnap := waitState(t, ts, chained.ID, job.StateDone)
	if !chainedSnap.Delta {
		t.Fatal("chained job must be marked delta")
	}
	if err := euler.Verify(patchedCliques(4, 5, [][2]int64{{e0.U, e0.V}, {e0.U, e0.V}, {e1.U, e1.V}, {e1.U, e1.V}}),
		streamCircuit(t, ts, chained.ID)); err != nil {
		t.Fatalf("chained delta circuit: %v", err)
	}
}

// TestDeltaQueryForm submits the diff through the query-string form
// (?base=&add=u-v) instead of a JSON body.
func TestDeltaQueryForm(t *testing.T) {
	_, ts := newDeltaServer(t, 1)

	base := submitJSON(t, ts, `{"generator":{"family":"cliques","k":3,"c":5}}`)
	baseSnap := waitState(t, ts, base.ID, job.StateDone)

	e0 := gen.RingOfCliques(3, 5).Edge(0)
	resp, err := http.Post(fmt.Sprintf("%s/v1/jobs?base=%s&add=%d-%d,%d-%d",
		ts.URL, baseSnap.Fingerprint, e0.U, e0.V, e0.U, e0.V), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("query-form delta: status %d", resp.StatusCode)
	}
	var snap job.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	done := waitState(t, ts, snap.ID, job.StateDone)
	if !done.Delta {
		t.Fatal("query-form job must be marked delta")
	}
	patched := patchedCliques(3, 5, [][2]int64{{e0.U, e0.V}, {e0.U, e0.V}})
	if err := euler.Verify(patched, streamCircuit(t, ts, snap.ID)); err != nil {
		t.Fatalf("query-form delta circuit: %v", err)
	}
}

// TestDeltaRejections covers the structured client errors: unknown
// base, unsupported kind, malformed diffs, and a diff whose patched
// graph violates the solver's preconditions — which must answer with
// the exact error a full submission of that graph would fail with.
func TestDeltaRejections(t *testing.T) {
	_, ts := newDeltaServer(t, 1)

	base := submitJSON(t, ts, `{"generator":{"family":"cliques","k":3,"c":5}}`)
	baseSnap := waitState(t, ts, base.ID, job.StateDone)
	fp := baseSnap.Fingerprint

	t.Run("unknown base", func(t *testing.T) {
		bogus := strings.Repeat("ab", 32)
		status, e, _ := postJSON(t, ts, fmt.Sprintf(`{"base":%q,"diff":{"add":[[0,1]]}}`, bogus))
		if status != http.StatusConflict || e.Code != codeUnknownBase {
			t.Fatalf("status %d code %q, want 409 %s", status, e.Code, codeUnknownBase)
		}
	})
	t.Run("malformed base", func(t *testing.T) {
		status, e, _ := postJSON(t, ts, `{"base":"zzz","diff":{"add":[[0,1]]}}`)
		if status != http.StatusBadRequest || e.Code != codeBadRequest {
			t.Fatalf("status %d code %q, want 400 %s", status, e.Code, codeBadRequest)
		}
	})
	t.Run("unsupported kind", func(t *testing.T) {
		status, e, _ := postJSON(t, ts, fmt.Sprintf(`{"kind":"postman","base":%q,"diff":{"add":[[0,1]]}}`, fp))
		if status != http.StatusBadRequest || e.Code != codeDeltaUnsupported {
			t.Fatalf("status %d code %q, want 400 %s", status, e.Code, codeDeltaUnsupported)
		}
	})
	t.Run("remove nonexistent edge", func(t *testing.T) {
		g0 := gen.RingOfCliques(3, 5)
		// Two parallel copies keep the graph Eulerian, so only the bogus
		// removal can be the rejection.
		e0 := g0.Edge(0)
		status, e, _ := postJSON(t, ts, fmt.Sprintf(
			`{"base":%q,"diff":{"add":[[%d,%d],[%d,%d]],"remove":[[0,9999]]}}`, fp, e0.U, e0.V, e0.U, e0.V))
		if status != http.StatusBadRequest || e.Code != codeBadRequest {
			t.Fatalf("status %d code %q, want 400 %s", status, e.Code, codeBadRequest)
		}
		if !strings.Contains(e.Error, "not present in the base graph") {
			t.Fatalf("error %q should name the missing edge", e.Error)
		}
	})
	t.Run("engine-option override", func(t *testing.T) {
		status, e, _ := postJSON(t, ts, fmt.Sprintf(`{"base":%q,"parts":3,"diff":{"add":[[0,1]]}}`, fp))
		if status != http.StatusBadRequest || e.Code != codeBadRequest {
			t.Fatalf("status %d code %q, want 400 %s", status, e.Code, codeBadRequest)
		}
	})
	t.Run("non-Eulerian patch", func(t *testing.T) {
		// One extra 0-1 edge flips both endpoints to odd degree.
		status, e, _ := postJSON(t, ts, fmt.Sprintf(`{"base":%q,"diff":{"add":[[0,1]]}}`, fp))
		if status != http.StatusBadRequest || e.Code != codeBadRequest {
			t.Fatalf("status %d code %q, want 400 %s", status, e.Code, codeBadRequest)
		}
		want := euler.CheckInput(patchedCliques(3, 5, [][2]int64{{0, 1}})).Error()
		if e.Error != want {
			t.Fatalf("error %q, want the full-submit precondition error %q", e.Error, want)
		}
	})
	t.Run("endpoint over the vertex cap", func(t *testing.T) {
		// Patching would size a graph from the 2^40 endpoint; Validate
		// must refuse it in both submission forms, and the server must
		// keep serving afterwards.
		status, e, _ := postJSON(t, ts, fmt.Sprintf(
			`{"base":%q,"diff":{"add":[[0,1099511627776],[1099511627776,0]]}}`, fp))
		if status != http.StatusBadRequest || e.Code != codeBadRequest {
			t.Fatalf("JSON form: status %d code %q, want 400 %s", status, e.Code, codeBadRequest)
		}
		resp, err := http.Post(fmt.Sprintf("%s/v1/jobs?base=%s&add=0-1099511627776,1099511627776-0", ts.URL, fp), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qe errorBody
		json.NewDecoder(resp.Body).Decode(&qe)
		if resp.StatusCode != http.StatusBadRequest || qe.Code != codeBadRequest {
			t.Fatalf("query form: status %d code %q, want 400 %s", resp.StatusCode, qe.Code, codeBadRequest)
		}
		next := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":3}}`)
		waitState(t, ts, next.ID, job.StateDone)
	})
	t.Run("retention disabled", func(t *testing.T) {
		_, plain := newCacheServer(t, 1, 8)
		status, e, _ := postJSON(t, plain, fmt.Sprintf(`{"base":%q,"diff":{"add":[[0,1]]}}`, fp))
		if status != http.StatusConflict || e.Code != codeUnknownBase {
			t.Fatalf("status %d code %q, want 409 %s", status, e.Code, codeUnknownBase)
		}
	})
}

// TestDeltaStoreMetrics checks the delta surface in /v1/metrics.
func TestDeltaStoreMetrics(t *testing.T) {
	s, ts := newDeltaServer(t, 1)

	base := submitJSON(t, ts, `{"generator":{"family":"cliques","k":3,"c":5}}`)
	baseSnap := waitState(t, ts, base.ID, job.StateDone)
	e0 := gen.RingOfCliques(3, 5).Edge(0)
	_, _, delta := postJSON(t, ts, fmt.Sprintf(
		`{"base":%q,"diff":{"add":[[%d,%d],[%d,%d]]}}`, baseSnap.Fingerprint, e0.U, e0.V, e0.U, e0.V))
	waitState(t, ts, delta.ID, job.StateDone)

	m := s.MetricsSnapshot()
	if m["delta_jobs"].(int64) != 1 {
		t.Fatalf("delta_jobs = %v, want 1", m["delta_jobs"])
	}
	if m["delta_reused_parts"].(int64) == 0 {
		t.Fatal("delta_reused_parts should be nonzero")
	}
	if m["delta_entries"].(int64) < 2 {
		t.Fatalf("delta_entries = %v, want base and delta retained", m["delta_entries"])
	}
	if m["delta_hits"].(int64) != 1 {
		t.Fatalf("delta_hits = %v, want 1", m["delta_hits"])
	}
}
