package httpapi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/service/job"
)

// encodeGraph is g's EULGRPH1 encoding.
func encodeGraph(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uploadHeader is an EULGRPH1 header declaring n vertices and m edges,
// followed by body.
func uploadHeader(n, m uint64, body ...byte) []byte {
	return append(appendUvarint(appendUvarint([]byte("EULGRPH1"), n), m), body...)
}

// TestMalformedUploadRefusedAtSubmit: every upload record is checked as
// the body is saved, so a malformed upload is refused at submit with its
// status — with a result cache and without one — and leaves no job, no
// job directory and no held build slot behind.
func TestMalformedUploadRefusedAtSubmit(t *testing.T) {
	const limit = 1024
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"bad magic", append([]byte("NOTGRPH1"), encodeGraph(t, gen.Cycle(5))[8:]...), http.StatusBadRequest},
		{"header only", uploadHeader(4, 2), http.StatusBadRequest},
		{"out-of-range endpoint", uploadHeader(4, 1, 0, 9), http.StatusBadRequest},
		{"self loop", uploadHeader(4, 1, 1, 1), http.StatusBadRequest},
		{"undecodable varints", []byte(undecodableUpload(8)), http.StatusBadRequest},
		{"trailing garbage", append(encodeGraph(t, gen.Cycle(5)), 0x00, 0x01), http.StatusBadRequest},
		{"counts over the caps", uploadHeader(uint64(job.MaxUploadVertices)+1, 0), http.StatusRequestEntityTooLarge},
		{"body over MaxUploadBytes", encodeGraph(t, gen.Torus(16, 16)), http.StatusRequestEntityTooLarge},
	}
	for _, mode := range []struct {
		name string
		new  func(*testing.T, int, int) (*Server, *httptest.Server)
	}{{"cache", newCacheServer}, {"no cache", newTestServer}} {
		t.Run(mode.name, func(t *testing.T) {
			s, _ := mode.new(t, 1, 4)
			s.maxUploadBytes = limit
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(c.body))
					req.Header.Set("Content-Type", "application/octet-stream")
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, req)
					if rec.Code != c.want {
						t.Fatalf("status %d (%s), want %d", rec.Code, rec.Body, c.want)
					}
					if n := s.jobs.Len(); n != 0 {
						t.Errorf("store holds %d jobs, want 0", n)
					}
					if n := len(jobDirs(t, s)); n != 0 {
						t.Errorf("%d job dirs under the data dir, want 0", n)
					}
					if n := len(s.buildSem); n != 0 {
						t.Errorf("%d build slots still held", n)
					}
				})
			}
		})
	}
}

// referenceUpload is FuzzSaveUpload's oracle: the EULGRPH1 format read
// field by field, then the per-server count caps.  ok is false for any
// body an upload must be refused for.
func referenceUpload(data []byte) (edges []graph.Edge, vertices uint64, ok bool) {
	br := bufio.NewReader(bytes.NewReader(data))
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil || string(got[:]) != "EULGRPH1" {
		return nil, 0, false
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, false
	}
	m, err := binary.ReadUvarint(br)
	if err != nil || job.ValidateUploadCounts(n, m) != nil {
		return nil, 0, false
	}
	for i := uint64(0); i < m; i++ {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, 0, false
		}
		v, err := binary.ReadUvarint(br)
		if err != nil || u >= n || v >= n || u == v {
			return nil, 0, false
		}
		edges = append(edges, graph.Edge{ID: int64(i), U: int64(u), V: int64(v)})
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, false
	}
	return edges, n, true
}

// FuzzSaveUpload: saveUpload accepts exactly the bodies the reference
// accepts, saves each accepted body byte for byte, and the saved file
// reads back with the reference's edges.
func FuzzSaveUpload(f *testing.F) {
	f.Add(encodeGraph(f, gen.Torus(3, 3)))
	f.Add(encodeGraph(f, gen.RingOfCliques(2, 3)))
	f.Add(uploadHeader(4, 2))
	f.Add(uploadHeader(4, 1, 1, 1))
	f.Add([]byte(undecodableUpload(4)))
	f.Add(append(encodeGraph(f, gen.Cycle(3)), 0xff, 0xff))
	f.Add(uploadHeader(uint64(job.MaxUploadVertices)+1, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, n, ok := referenceUpload(data)
		path := filepath.Join(t.TempDir(), "graph.bin")
		edges, err := saveUpload(path, bytes.NewReader(data))
		if err != nil {
			if ok {
				t.Fatalf("refused a body the reference accepts: %v", err)
			}
			var tl *errTooLarge
			if !errors.As(err, &tl) && !errors.Is(err, graph.ErrBadFormat) {
				t.Fatalf("refusal %v is neither a cap nor a format error", err)
			}
			return
		}
		if !ok {
			t.Fatal("accepted a body the reference refuses")
		}
		if edges != int64(len(want)) {
			t.Fatalf("declared %d edges, reference decoded %d", edges, len(want))
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, data) {
			t.Fatalf("saved %d bytes differ from the %d-byte body", len(saved), len(data))
		}
		if n > 1<<20 {
			return // graph.ReadFile's O(V) allocation would dominate the run
		}
		g, err := graph.ReadFile(path)
		if err != nil {
			t.Fatalf("saved upload does not read back: %v", err)
		}
		if g.NumEdges() != edges {
			t.Fatalf("read back %d edges, declared %d", g.NumEdges(), edges)
		}
		for i, e := range g.Edges() {
			if e != want[i] {
				t.Fatalf("edge %d read back as %+v, want %+v", i, e, want[i])
			}
		}
	})
}
