package job

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/jobkind"
)

// parseFrames parses stored frames back into steps with the kind's
// line codec; every frame must end on a line boundary.
func parseFrames(t *testing.T, kind jobkind.Kind, frames [][]byte) []graph.Step {
	t.Helper()
	var out []graph.Step
	for i, frame := range frames {
		if len(frame) == 0 || frame[len(frame)-1] != '\n' {
			t.Fatalf("frame %d does not end on a line boundary", i)
		}
		for _, line := range bytes.SplitAfter(frame[:len(frame)-1], []byte{'\n'}) {
			st, err := kind.ParseLine(bytes.TrimSuffix(line, []byte{'\n'}))
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			out = append(out, st)
		}
	}
	return out
}

// TestSinkRoundTrip runs the sink over three frames, the last one
// partial, with the real line codecs: euler steps, and postman steps
// whose revisit flag rides in the edge sign.  The stored frames must be
// the kind's rendered lines, and parsing them back must give the
// appended steps.
func TestSinkRoundTrip(t *testing.T) {
	const n = 2*DefaultBatchSteps + 123
	for _, name := range []string{"euler", "postman"} {
		t.Run(name, func(t *testing.T) {
			kind := jobkind.MustGet(name)
			want := make([]graph.Step, n)
			var wantBody []byte
			for i := range want {
				want[i] = graph.Step{Edge: int64(i), From: int64(i * 2), To: int64(i*2 + 1)}
				if name == "postman" && i%3 == 1 {
					want[i].Edge = -want[i].Edge - 1
				}
				wantBody = kind.AppendLine(wantBody, want[i])
			}
			sink, err := NewCircuitSink(filepath.Join(t.TempDir(), "circuit.log"), kind)
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			for i, s := range want {
				if err := sink.Append(s); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			if err := sink.IterateBatches(func([]byte) error { return nil }); err == nil {
				t.Fatal("iterate before Finish should fail")
			}
			if err := sink.Finish(); err != nil {
				t.Fatal(err)
			}
			if got := sink.Steps(); got != n {
				t.Fatalf("steps = %d, want %d", got, n)
			}
			var frames [][]byte
			if err := sink.IterateBatches(func(f []byte) error { frames = append(frames, f); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(frames) != 3 {
				t.Fatalf("%d frames, want 3", len(frames))
			}
			if lines := bytes.Count(frames[2], []byte{'\n'}); lines != 123 {
				t.Fatalf("last frame holds %d lines, want 123", lines)
			}
			if !bytes.Equal(bytes.Join(frames, nil), wantBody) {
				t.Fatal("stored frames are not the kind's rendered lines")
			}
			got := parseFrames(t, kind, frames)
			if len(got) != len(want) {
				t.Fatalf("got %d steps, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			if err := sink.Append(graph.Step{}); err == nil {
				t.Fatal("append after Finish should fail")
			}
		})
	}
}

// TestSinkCloseDeferredDuringIterate: closing the sink (as retention
// eviction does) while a reader is mid-IterateBatches must not cut the
// stream short; the close completes when the reader leaves.
func TestSinkCloseDeferredDuringIterate(t *testing.T) {
	const n = 2*DefaultBatchSteps + 1
	steps := make([]graph.Step, n)
	for i := range steps {
		steps[i] = graph.Step{Edge: int64(i), From: int64(i), To: int64(i + 1)}
	}
	kind := jobkind.MustGet("euler")
	sink, err := NewCircuitSink(filepath.Join(t.TempDir(), "circuit.log"), kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if err := sink.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	err = sink.IterateBatches(func(f []byte) error {
		frames = append(frames, f)
		if len(frames) == 1 {
			// Concurrent eviction closes the sink mid-stream.
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("iterate with concurrent close: %v", err)
	}
	if len(frames) != 3 {
		t.Fatalf("saw %d frames, want 3", len(frames))
	}
	if got := len(parseFrames(t, kind, frames)); got != n {
		t.Fatalf("saw %d steps, want %d", got, n)
	}
	// The deferred close has now landed: further reads are refused.
	if err := sink.IterateBatches(func([]byte) error { return nil }); err == nil {
		t.Fatal("iterate after close should fail")
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// add registers a fresh torus-generator job with scratch directory dir.
func add(s *Store, dir string) *Job {
	j := New(Spec{Generator: &GenSpec{Family: "torus"}}, dir, Input{})
	s.Add(j)
	return j
}

func TestStateMachine(t *testing.T) {
	s := NewStore(10)
	j := add(s, "")

	if st := j.State(); st != StateQueued {
		t.Fatalf("state = %s, want queued", st)
	}
	if !j.Start() {
		t.Fatal("Start on queued job should succeed")
	}
	if j.Start() {
		t.Fatal("second Start should fail")
	}
	if st := j.Fail(errors.New("boom")); st != StateFailed {
		t.Fatalf("Fail => %s, want failed", st)
	}
	snap := j.Snapshot()
	if snap.Error != "boom" || snap.Started == nil || snap.Finished == nil {
		t.Fatalf("bad snapshot after fail: %+v", snap)
	}
}

func TestCancelQueuedThenRunning(t *testing.T) {
	s := NewStore(10)

	// Queued job: cancel transitions immediately and Start is refused.
	q := add(s, "")
	state, transitioned := q.Cancel()
	if state != StateCancelled || !transitioned {
		t.Fatalf("cancel queued => (%s, %v), want (cancelled, true)", state, transitioned)
	}
	if q.Start() {
		t.Fatal("Start after cancel should fail")
	}

	// Running job: cancel only requests; Fail maps the resulting error
	// to cancelled because the context is gone.
	r := add(s, "")
	r.Start()
	state, transitioned = r.Cancel()
	if state != StateRunning || transitioned {
		t.Fatalf("cancel running => (%s, %v), want (running, false)", state, transitioned)
	}
	if r.Context().Err() == nil {
		t.Fatal("running job's context should be cancelled")
	}
	if st := r.Fail(r.Context().Err()); st != StateCancelled {
		t.Fatalf("Fail after cancel => %s, want cancelled", st)
	}
}

// TestCircuitSurvivesEviction: Circuit() hands back the sink with a
// reader reference already held, so an eviction racing with the
// hand-off cannot close the log before the stream starts.
func TestCircuitSurvivesEviction(t *testing.T) {
	s := NewStore(1)
	dir := filepath.Join(t.TempDir(), "a")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	a := add(s, dir)
	sink, err := NewCircuitSink(filepath.Join(dir, "circuit.log"), jobkind.MustGet("euler"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sink.Append(graph.Step{Edge: int64(i), From: int64(i), To: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	a.Start()
	a.Finish(&euler.RunReport{}, sink)

	got, release, ok := a.Circuit() // reference held from here
	if !ok {
		t.Fatal("Circuit on done job failed")
	}

	// Evict job a: two more terminal jobs push it past the bound.
	for i := 0; i < 2; i++ {
		j := add(s, "")
		j.Start()
		j.Fail(errors.New("x"))
	}
	add(s, "")
	if _, ok := s.Get(a.ID); ok {
		t.Fatal("job a should have been evicted")
	}

	// The stream still replays in full despite the eviction's Close.
	var n int
	if err := got.IterateBatches(func(f []byte) error { n += bytes.Count(f, []byte{'\n'}); return nil }); err != nil {
		t.Fatalf("iterate after eviction: %v", err)
	}
	if n != 5 {
		t.Fatalf("saw %d steps, want 5", n)
	}
	release()

	// With the last reference gone the deferred close lands.
	if _, _, ok := a.Circuit(); ok {
		t.Fatal("Circuit should refuse after the deferred close")
	}
}

// fakeSource is an in-memory CircuitSource of one frame.
type fakeSource []byte

func (f fakeSource) Steps() int64                                     { return int64(bytes.Count(f, []byte{'\n'})) }
func (f fakeSource) IterateBatches(fn func(frame []byte) error) error { return fn(f) }

// TestFinishCached: a queued job completes straight from a cached
// source and serves it through Circuit; a cancelled job refuses the
// cached completion.
func TestFinishCached(t *testing.T) {
	s := NewStore(10)
	j := add(s, "")
	src := fakeSource("{\"edge\":0,\"from\":0,\"to\":1}\n{\"edge\":1,\"from\":1,\"to\":0}\n")
	if !j.FinishCached(src) {
		t.Fatal("FinishCached on a queued job must succeed")
	}
	snap := j.Snapshot()
	if snap.State != StateDone || snap.Steps != 2 || snap.Started != nil {
		t.Fatalf("cached snapshot = %+v, want done with 2 steps and no start time", snap)
	}
	got, release, ok := j.Circuit()
	if !ok || got.Steps() != 2 {
		t.Fatal("Circuit must serve the cached source")
	}
	release()
	if j.Start() {
		t.Fatal("Start after a cached completion must fail")
	}

	c := add(s, "")
	c.Cancel()
	if c.FinishCached(src) {
		t.Fatal("FinishCached on a cancelled job must refuse")
	}
	if st := c.State(); st != StateCancelled {
		t.Fatalf("state = %s after refused cached finish, want cancelled", st)
	}
}

func TestStoreRetention(t *testing.T) {
	s := NewStore(2)
	base := t.TempDir()
	var jobs []*Job
	for i := 0; i < 3; i++ {
		dir := filepath.Join(base, newID())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		j := add(s, dir)
		j.Start()
		j.Fail(errors.New("x"))
		jobs = append(jobs, j)
	}
	// Adding a fourth evicts the oldest terminal job beyond the bound.
	add(s, "")
	if _, ok := s.Get(jobs[0].ID); ok {
		t.Fatal("oldest terminal job should have been evicted")
	}
	if _, ok := s.Get(jobs[2].ID); !ok {
		t.Fatal("newest terminal job should survive")
	}
	if _, err := os.Stat(jobs[0].Dir); !os.IsNotExist(err) {
		t.Fatalf("evicted job dir should be removed, stat err = %v", err)
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("store len = %d, want 3", n)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"neither input", Spec{}, false},
		{"both inputs", Spec{Generator: &GenSpec{Family: "torus"}, GraphFile: "x"}, false},
		{"generator ok", Spec{Generator: &GenSpec{Family: "torus"}}, true},
		{"upload ok", Spec{GraphFile: "x"}, true},
		{"bad family", Spec{Generator: &GenSpec{Family: "petersen"}}, false},
		{"bad mode", Spec{Generator: &GenSpec{Family: "torus"}, Mode: "quantum"}, false},
		{"good mode", Spec{Generator: &GenSpec{Family: "torus"}, Mode: "proposed"}, true},
		{"negative parts", Spec{Generator: &GenSpec{Family: "torus"}, Parts: -1}, false},
		{"even clique", Spec{Generator: &GenSpec{Family: "cliques", C: 4}}, false},
		{"rmat too big", Spec{Generator: &GenSpec{Family: "rmat", Vertices: 1 << 30}}, false},
		{"delta ok", Spec{Base: "b", Diff: &DiffSpec{Add: [][2]int64{{0, MaxUploadVertices - 1}}}}, true},
		// Apply would size the patched graph from this endpoint.
		{"delta endpoint over cap", Spec{Base: "b", Diff: &DiffSpec{Add: [][2]int64{{0, 1 << 40}}}}, false},
		{"delta endpoint at cap", Spec{Base: "b", Diff: &DiffSpec{Remove: [][2]int64{{MaxUploadVertices, 0}}}}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}

	// Defaults are applied in place.
	g := &GenSpec{Family: "rmat"}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Vertices != 100_000 || g.Degree != 5 || g.Seed != 42 {
		t.Fatalf("rmat defaults not applied: %+v", g)
	}
}
