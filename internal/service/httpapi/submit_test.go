package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service/job"
)

// jobDirs lists the job scratch directories under the server's data dir.
func jobDirs(t *testing.T, s *Server) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(s.dataDir, "job-*"))
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// undecodableUpload is an EULGRPH1 body declaring edges edges whose
// endpoint varints never terminate: two bytes per declared edge, none of
// which decodes.
func undecodableUpload(edges int) string {
	body := append([]byte("EULGRPH1"), appendUvarint(appendUvarint(nil, 4), uint64(edges))...)
	return string(append(body, bytes.Repeat([]byte{0x80}, 2*edges)...))
}

// TestRefusedSubmissionLeavesNoTrace drives every exit a submission can
// take before it is accepted.  Each must answer its status and leave
// the server as it found it: no job registered, no job directory left
// behind, and every submission-time build slot free again.
func TestRefusedSubmissionLeavesNoTrace(t *testing.T) {
	s, ts := newDeltaServer(t, 1)
	s.cache.MaxFollowers = 1
	base := submitJSON(t, ts, `{"generator":{"family":"cliques","k":3,"c":5}}`)
	fp := waitState(t, ts, base.ID, job.StateDone).Fingerprint

	// A leader held in its worker and its one allowed follower, so an
	// identical third submission overflows.
	release := make(chan struct{})
	defer close(release)
	s.beforeRun = func(*job.Job) { <-release }
	const held = `{"generator":{"family":"torus","width":6,"height":4}}`
	leader := submitJSON(t, ts, held)
	waitState(t, ts, leader.ID, job.StateRunning)
	submitJSON(t, ts, held)

	cases := []struct {
		name, contentType, body string
		// holdSlots fills the build slots and cancels the request once
		// it waits for one.
		holdSlots bool
		want      int
	}{
		{"generator out of range", "application/json", `{"generator":{"family":"torus","width":2,"height":2}}`, false, http.StatusBadRequest},
		{"undecodable upload", "application/octet-stream", undecodableUpload(8), false, http.StatusBadRequest},
		{"unknown delta base", "application/json", fmt.Sprintf(`{"base":%q,"diff":{"add":[[0,1],[0,1]]}}`, strings.Repeat("ab", 32)), false, http.StatusConflict},
		{"non-Eulerian patch", "application/json", fmt.Sprintf(`{"base":%q,"diff":{"add":[[0,1]]}}`, fp), false, http.StatusBadRequest},
		{"cancelled waiting for a build slot", "application/json", `{"generator":{"family":"torus","width":5,"height":5}}`, true, 0},
		{"identical-submission overflow", "application/json", held, false, http.StatusTooManyRequests},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs, dirs := s.jobs.Len(), len(jobDirs(t, s))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(c.body)).WithContext(ctx)
			req.Header.Set("Content-Type", c.contentType)
			rec := httptest.NewRecorder()
			if c.holdSlots {
				for range cap(s.buildSem) {
					s.buildSem <- struct{}{}
				}
				time.AfterFunc(50*time.Millisecond, cancel)
			}
			s.Handler().ServeHTTP(rec, req)
			if c.holdSlots {
				for range cap(s.buildSem) {
					<-s.buildSem
				}
			}
			if c.want != 0 && rec.Code != c.want {
				t.Fatalf("status %d (%s), want %d", rec.Code, rec.Body, c.want)
			}
			if c.want == 0 && rec.Body.Len() != 0 {
				t.Fatalf("answered a departed client: %d %s", rec.Code, rec.Body)
			}
			if n := s.jobs.Len(); n != jobs {
				t.Errorf("store holds %d jobs, want %d", n, jobs)
			}
			if n := len(jobDirs(t, s)); n != dirs {
				t.Errorf("%d job dirs under the data dir, want %d", n, dirs)
			}
			if n := len(s.buildSem); n != 0 {
				t.Errorf("%d build slots still held", n)
			}
		})
	}
}
