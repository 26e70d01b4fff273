package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/spill"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.  Spans of one operation share Op; Parent is the ID of the
// span that caused this one (0 for an operation's root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.  Spans whose interval
// the benchmark reconstructs from values a call returned (per-level BSP
// spans, server-side queue and exec intervals) come through here too.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartMS: ms(start.Sub(t.t0)), EndMS: ms(end.Sub(t.t0)),
	})
	return id
}

// reserve hands out a span ID before its interval is known, so children
// can name their parent; finish fills the interval in.
func (t *tracer) reserve(name string, parent, op int) int {
	return t.add(name, parent, op, t.t0, t.t0)
}

func (t *tracer) finish(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].StartMS = ms(start.Sub(t.t0))
	t.spans[id-1].EndMS = ms(end.Sub(t.t0))
}

// selfRow is one line of the self-time table: a span name's total
// duration minus the part its child spans cover.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndMS - s.StartMS
	}
	byName := map[string]*selfRow{}
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		d := s.EndMS - s.StartMS
		r.Count++
		r.TotalMS += d
		r.SelfMS += d - children[s.ID]
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	return rows
}

// write stores the spans and their self-time table as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		SelfTimes []selfRow `json:"self_times"`
		Spans     []span    `json:"spans"`
	}{self, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timedStore wraps a spill.Store handed to the engine and accumulates the
// time and bytes of its calls.  The engine calls stores from several
// workers at once, hence the mutex; it is held only to add the numbers up.
type timedStore struct {
	spill.Store
	mu           sync.Mutex
	put, get     time.Duration
	puts, gets   int64
	bytesWritten int64
}

func (s *timedStore) Put(id int64, data []byte) error {
	t := time.Now()
	err := s.Store.Put(id, data)
	d := time.Since(t)
	s.mu.Lock()
	s.put += d
	s.puts++
	s.bytesWritten += int64(len(data))
	s.mu.Unlock()
	return err
}

func (s *timedStore) Get(id int64) ([]byte, error) {
	t := time.Now()
	data, err := s.Store.Get(id)
	d := time.Since(t)
	s.mu.Lock()
	s.get += d
	s.gets++
	s.mu.Unlock()
	return data, err
}

// timedSource wraps the graph.Source of an out-of-core solve and estimates
// the time spent in Adj, the call that reads through the pager.  A solve
// makes millions of Adj calls, so only one in adjSampling is timed and
// counted adjSampling times: reading the clock around every call slowed
// the traced solve by up to 8 %.  One in eight gives the same total as
// timing every call does; one in 31 or 32 falls in step with the torus and
// overstates it by a tenth or more.  Paged solves run their workers one at a
// time, so no lock.
type timedSource struct {
	graph.Source
	calls int
	adj   time.Duration
}

const adjSampling = 8

func (s *timedSource) Adj(v graph.VertexID) []graph.Half {
	s.calls++
	if s.calls%adjSampling != 0 {
		return s.Source.Adj(v)
	}
	t := time.Now()
	h := s.Source.Adj(v)
	s.adj += adjSampling * time.Since(t)
	return h
}
