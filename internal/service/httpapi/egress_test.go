package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/jobkind"
	"repro/internal/service/job"
)

// rawCircuit fetches the circuit body without decoding it.
func rawCircuit(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/circuit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("circuit: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCircuitEgressZeroCopy pins the zero-copy contract: the HTTP body
// is the byte-for-byte concatenation of the frames the sink stored (no
// decode/re-encode on the way out), a cache-hit replay of the same spec
// serves the identical bytes, and both responses land in the per-job
// and service egress counters.
func TestCircuitEgressZeroCopy(t *testing.T) {
	s, ts := newCacheServer(t, 2, 16)
	const spec = `{"generator":{"family":"cliques","k":6,"c":3},"parts":4,"seed":11}`

	snap := submitJSON(t, ts, spec)
	waitState(t, ts, snap.ID, job.StateDone)
	body := rawCircuit(t, ts, snap.ID)
	if len(body) == 0 {
		t.Fatal("circuit body is empty")
	}

	// The stored sink frames, concatenated, must equal the wire bytes.
	j, ok := s.jobs.Get(snap.ID)
	if !ok {
		t.Fatalf("job %s not in store", snap.ID)
	}
	src, release, ok := j.Circuit()
	if !ok {
		t.Fatal("circuit not available")
	}
	var stored []byte
	if err := src.IterateBatches(func(frame []byte) error {
		if len(frame) == 0 || frame[0] != '{' {
			t.Fatalf("sink frame is not NDJSON: %.20q", frame)
		}
		stored = append(stored, frame...)
		return nil
	}); err != nil {
		release()
		t.Fatal(err)
	}
	release()
	if !bytes.Equal(body, stored) {
		t.Fatalf("egress bytes differ from stored frames: %d vs %d bytes", len(body), len(stored))
	}

	// Same spec again: the result cache serves it without an execution,
	// and the replayed stream must be byte-identical.
	snap2 := submitJSON(t, ts, spec)
	done2 := waitState(t, ts, snap2.ID, job.StateDone)
	if snap2.ID == snap.ID {
		t.Fatal("second submission reused the first job ID")
	}
	body2 := rawCircuit(t, ts, snap2.ID)
	if !bytes.Equal(body2, body) {
		t.Fatalf("cache-hit circuit differs: %d vs %d bytes", len(body2), len(body))
	}
	_ = done2

	// Egress accounting: each job counted its own response, the service
	// counter saw both.
	if got := getJob(t, ts, snap.ID).EgressBytes; got != int64(len(body)) {
		t.Fatalf("job 1 egress_bytes = %d, want %d", got, len(body))
	}
	if got := getJob(t, ts, snap2.ID).EgressBytes; got != int64(len(body2)) {
		t.Fatalf("job 2 egress_bytes = %d, want %d", got, len(body2))
	}
	if got := s.metrics.egressBytes.Load(); got != int64(len(body)+len(body2)) {
		t.Fatalf("service egress_bytes = %d, want %d", got, len(body)+len(body2))
	}
	if s.metrics.kind(jobkind.DefaultName).cacheHits.Load() == 0 {
		t.Fatal("second submission did not hit the result cache")
	}
}
