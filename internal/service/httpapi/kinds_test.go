package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/service/job"
)

// parseResult decodes a job's NDJSON result body through its kind's
// codec, back into sink steps.
func parseResult(t *testing.T, kind string, body []byte) []graph.Step {
	t.Helper()
	k := jobkind.MustGet(kind)
	var steps []graph.Step
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		st, err := k.ParseLine(line)
		if err != nil {
			t.Fatalf("%s line %q: %v", kind, line, err)
		}
		steps = append(steps, st)
	}
	return steps
}

// TestKindsEndToEnd serves one job of every registered kind through the
// full HTTP path and re-verifies each returned result with the kind's
// own checker — the acceptance loop the load runner automates.
func TestKindsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, 2, 16)

	cases := []struct {
		kind  string
		spec  string
		req   jobkind.Request
		graph *graph.Graph
	}{
		{
			kind:  "euler",
			spec:  `{"generator":{"family":"torus","width":6,"height":4},"parts":3,"seed":2}`,
			graph: gen.Torus(6, 4),
		},
		{
			kind:  "postman",
			spec:  `{"kind":"postman","generator":{"family":"grid","width":8,"height":6,"closures":0.1,"seed":4},"parts":3}`,
			graph: gen.StreetGrid(8, 6, 0.1, 4),
		},
		{
			kind: "debruijn",
			spec: `{"kind":"debruijn","debruijn":{"alphabet":2,"length":9}}`,
			req:  jobkind.Request{DeBruijn: &jobkind.DeBruijnSpec{Alphabet: 2, Length: 9}},
		},
		{
			kind: "superwalk",
			spec: `{"kind":"superwalk","superwalk":{"genome_len":400,"k":11,"seed":3}}`,
			req:  jobkind.Request{Superwalk: &jobkind.SuperwalkSpec{GenomeLen: 400, K: 11, Seed: 3}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			snap := submitJSON(t, ts, tc.spec)
			if snap.Spec.Kind != tc.kind {
				t.Fatalf("snapshot kind = %q, want %q", snap.Spec.Kind, tc.kind)
			}
			done := waitState(t, ts, snap.ID, job.StateDone)
			body := fetchBody(t, ts.URL+"/v1/jobs/"+snap.ID+"/circuit")
			steps := parseResult(t, tc.kind, body)
			if int64(len(steps)) != done.Steps {
				t.Fatalf("parsed %d steps, snapshot declares %d", len(steps), done.Steps)
			}
			if err := jobkind.MustGet(tc.kind).Verify(tc.req, tc.graph, steps); err != nil {
				t.Fatalf("result verification: %v", err)
			}
		})
	}
}

// TestKindReports: the server's circuit runner keeps the engine report,
// so a postman job's snapshot carries the report of its multigraph's
// solve, while a graphless kind never runs the engine and has none.
func TestKindReports(t *testing.T) {
	_, ts := newTestServer(t, 2, 16)
	snap := submitJSON(t, ts, `{"kind":"postman","generator":{"family":"grid","width":8,"height":6,"closures":0.1,"seed":6},"parts":3}`)
	done := waitState(t, ts, snap.ID, job.StateDone)
	if done.Report == nil || done.Report.TreeHeight == 0 {
		t.Fatalf("postman snapshot report = %+v, want one with a tree height", done.Report)
	}
	snap = submitJSON(t, ts, `{"kind":"debruijn","debruijn":{"alphabet":2,"length":7}}`)
	if done = waitState(t, ts, snap.ID, job.StateDone); done.Report != nil {
		t.Fatalf("debruijn snapshot carries a report: %+v", done.Report)
	}
}

// TestKindUpload: the kind query parameter routes an uploaded graph to
// its kind — a street grid has odd intersections, so it is only
// servable as postman (euler's precondition check must reject it).
func TestKindUpload(t *testing.T) {
	_, ts := newTestServer(t, 2, 8)
	g := gen.StreetGrid(6, 5, 0, 2)

	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?kind=postman&parts=3", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var snap job.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || snap.Spec.Kind != "postman" {
		t.Fatalf("postman upload: status %d, kind %q", resp.StatusCode, snap.Spec.Kind)
	}
	waitState(t, ts, snap.ID, job.StateDone)
	steps := parseResult(t, "postman", fetchBody(t, ts.URL+"/v1/jobs/"+snap.ID+"/circuit"))
	if err := jobkind.MustGet("postman").Verify(jobkind.Request{}, g, steps); err != nil {
		t.Fatalf("uploaded tour: %v", err)
	}

	// The same body as the default euler kind fails its precondition.
	buf.Reset()
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	failed := waitState(t, ts, snap.ID, job.StateFailed)
	if !strings.Contains(failed.Error, "odd degree") {
		t.Fatalf("euler upload of odd graph failed with %q", failed.Error)
	}
}

// TestKindStructured400 pins the structured rejection body: code and
// kind fields alongside the message, consistent with the scheduler's
// 429/503 shapes.
func TestKindStructured400(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)

	post := func(body string) (int, errorBody) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	status, e := post(`{"kind":"hamilton","generator":{"family":"torus"}}`)
	if status != http.StatusBadRequest || e.Code != "unknown_kind" || e.Kind != "hamilton" || e.Error == "" {
		t.Fatalf("unknown kind: status %d, body %+v", status, e)
	}

	for name, body := range map[string]string{
		"graph on sequence kind": `{"kind":"debruijn","generator":{"family":"torus"}}`,
		"engine opts on seq":     `{"kind":"debruijn","parts":4}`,
		"oversized debruijn":     `{"kind":"debruijn","debruijn":{"alphabet":10,"length":10}}`,
		"mixed superwalk forms":  `{"kind":"superwalk","superwalk":{"reads":["ACG"],"k":3}}`,
		"bad base":               `{"kind":"superwalk","superwalk":{"reads":["ACX"]}}`,
		"wrong spec for kind":    `{"kind":"postman","generator":{"family":"grid"},"debruijn":{}}`,
	} {
		status, e := post(body)
		if status != http.StatusBadRequest || e.Code != "invalid_kind_spec" || e.Kind == "" || e.Error == "" {
			t.Errorf("%s: status %d, body %+v", name, status, e)
		}
	}

	// Unknown kind on the upload query parameter too.
	resp, err := http.Post(ts.URL+"/v1/jobs?kind=hamilton", "application/octet-stream",
		strings.NewReader("EULGRPH1"))
	if err != nil {
		t.Fatal(err)
	}
	var e2 errorBody
	json.NewDecoder(resp.Body).Decode(&e2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("upload unknown kind: status %d", resp.StatusCode)
	}

	// List filter rejects unknown kinds with the same shape.
	resp, err = http.Get(ts.URL + "/v1/jobs?kind=hamilton")
	if err != nil {
		t.Fatal(err)
	}
	var e3 errorBody
	json.NewDecoder(resp.Body).Decode(&e3)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e3.Code != "unknown_kind" {
		t.Fatalf("list unknown kind: status %d, body %+v", resp.StatusCode, e3)
	}
}

// TestPerKindMetricsAndListFilter: /v1/metrics carries per-kind
// started/completed/cache_hits, and GET /v1/jobs?kind= narrows the
// listing.
func TestPerKindMetricsAndListFilter(t *testing.T) {
	s, ts := newTestServer(t, 2, 8)

	e := submitJSON(t, ts, `{"generator":{"family":"torus","width":4,"height":4}}`)
	d := submitJSON(t, ts, `{"kind":"debruijn","debruijn":{"alphabet":2,"length":6}}`)
	waitState(t, ts, e.ID, job.StateDone)
	waitState(t, ts, d.ID, job.StateDone)

	kinds := s.MetricsSnapshot()["kinds"].(map[string]map[string]int64)
	if kinds["euler"]["started"] != 1 || kinds["euler"]["completed"] != 1 {
		t.Fatalf("euler counters = %v", kinds["euler"])
	}
	if kinds["debruijn"]["started"] != 1 || kinds["debruijn"]["completed"] != 1 {
		t.Fatalf("debruijn counters = %v", kinds["debruijn"])
	}
	if kinds["postman"]["started"] != 0 {
		t.Fatalf("postman counters = %v", kinds["postman"])
	}

	// The wire form carries the same map.
	var m struct {
		Kinds map[string]map[string]int64 `json:"kinds"`
	}
	if err := json.Unmarshal(fetchBody(t, ts.URL+"/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Kinds) != 4 || m.Kinds["euler"]["completed"] != 1 {
		t.Fatalf("wire kinds = %v", m.Kinds)
	}

	list := func(query string) []job.Snapshot {
		var body struct {
			Jobs []job.Snapshot `json:"jobs"`
		}
		if err := json.Unmarshal(fetchBody(t, ts.URL+"/v1/jobs"+query), &body); err != nil {
			t.Fatal(err)
		}
		return body.Jobs
	}
	if all := list(""); len(all) != 2 {
		t.Fatalf("unfiltered list has %d jobs", len(all))
	}
	if got := list("?kind=debruijn"); len(got) != 1 || got[0].ID != d.ID {
		t.Fatalf("debruijn filter = %+v", got)
	}
	if got := list("?kind=euler"); len(got) != 1 || got[0].ID != e.ID {
		t.Fatalf("euler filter = %+v", got)
	}
	if got := list("?kind=superwalk"); len(got) != 0 {
		t.Fatalf("superwalk filter = %+v", got)
	}
}

// TestCrossKindDedupIsolation: identical same-kind submissions coalesce
// to one execution and replay byte-identically, while the same input
// graph under a different kind never shares the content address.
func TestCrossKindDedupIsolation(t *testing.T) {
	s, ts := newCacheServer(t, 2, 16)

	// A torus is Eulerian, so euler and postman both serve it — but as
	// distinct executions.
	eu := submitJSON(t, ts, `{"generator":{"family":"torus","width":6,"height":4},"parts":3,"seed":2}`)
	waitState(t, ts, eu.ID, job.StateDone)
	pm := submitJSON(t, ts, `{"kind":"postman","generator":{"family":"torus","width":6,"height":4},"parts":3,"seed":2}`)
	waitState(t, ts, pm.ID, job.StateDone)

	kinds := s.MetricsSnapshot()["kinds"].(map[string]map[string]int64)
	if kinds["euler"]["started"] != 1 || kinds["postman"]["started"] != 1 {
		t.Fatalf("cross-kind submissions shared an execution: %v", kinds)
	}
	if kinds["postman"]["cache_hits"] != 0 {
		t.Fatalf("postman hit euler's cache entry: %v", kinds["postman"])
	}

	// Identical postman resubmission: zero new executions, byte-identical
	// replay.
	raw1 := fetchBody(t, ts.URL+"/v1/jobs/"+pm.ID+"/circuit")
	pm2 := submitJSON(t, ts, `{"kind":"postman","generator":{"family":"torus","width":6,"height":4},"parts":3,"seed":2}`)
	if pm2.State != job.StateDone {
		waitState(t, ts, pm2.ID, job.StateDone)
	}
	raw2 := fetchBody(t, ts.URL+"/v1/jobs/"+pm2.ID+"/circuit")
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("replayed tour differs from the computed one")
	}
	kinds = s.MetricsSnapshot()["kinds"].(map[string]map[string]int64)
	if kinds["postman"]["started"] != 1 || kinds["postman"]["cache_hits"] != 1 {
		t.Fatalf("postman dedup counters = %v", kinds["postman"])
	}

	// Graphless kinds share the cache machinery too.
	d1 := submitJSON(t, ts, `{"kind":"superwalk","superwalk":{"genome_len":300,"k":9,"seed":6}}`)
	waitState(t, ts, d1.ID, job.StateDone)
	d2 := submitJSON(t, ts, `{"kind":"superwalk","superwalk":{"genome_len":300,"k":9,"seed":6}}`)
	if d2.State != job.StateDone {
		waitState(t, ts, d2.ID, job.StateDone)
	}
	if !bytes.Equal(
		fetchBody(t, ts.URL+"/v1/jobs/"+d1.ID+"/circuit"),
		fetchBody(t, ts.URL+"/v1/jobs/"+d2.ID+"/circuit"),
	) {
		t.Fatal("replayed superwalk differs")
	}
	kinds = s.MetricsSnapshot()["kinds"].(map[string]map[string]int64)
	if kinds["superwalk"]["started"] != 1 || kinds["superwalk"]["cache_hits"] != 1 {
		t.Fatalf("superwalk dedup counters = %v", kinds["superwalk"])
	}
	// A different synthetic genome is a different address.
	d3 := submitJSON(t, ts, `{"kind":"superwalk","superwalk":{"genome_len":300,"k":9,"seed":7}}`)
	waitState(t, ts, d3.ID, job.StateDone)
	kinds = s.MetricsSnapshot()["kinds"].(map[string]map[string]int64)
	if kinds["superwalk"]["started"] != 2 {
		t.Fatalf("distinct superwalk specs coalesced: %v", kinds["superwalk"])
	}
}
