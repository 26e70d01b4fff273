package sched

// The delta store retains, per cached result fingerprint, everything a
// delta (edge-diff) submission needs: the base run's submitted solve
// options, its exact edge list (diffs are applied to the submitted
// ordering, so a patched graph is reconstructible bit for bit), and the
// engine's opaque replay record.  It is a byte-budgeted LRU like the
// result cache, but purely in memory: retained state is an optimisation,
// and an evicted base simply turns the next diff against it into a 409
// unknown_base that clients answer with a full submit.

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// ParseFingerprint parses the hex form produced by Fingerprint.String,
// the only base reference clients ever see.
func ParseFingerprint(s string) (Fingerprint, error) {
	var fp Fingerprint
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(fp) {
		return fp, fmt.Errorf("sched: %q is not a fingerprint", s)
	}
	copy(fp[:], raw)
	return fp, nil
}

// DeltaEntry is the retained base-run state for one fingerprint.
type DeltaEntry struct {
	// Opts are the solve options as submitted with the base; delta jobs
	// inherit them (they are part of the base fingerprint, so a diff
	// cannot change them without changing the base).
	Opts SolveOptions
	// NumVertices and Edges reproduce the base graph exactly as it was
	// solved, in submitted edge order.
	NumVertices int64
	Edges       [][2]int64
	// State is the engine's encoded replay record
	// (euler.EncodeRunRecord); opaque at this layer.
	State []byte
}

// sizeBytes approximates the entry's memory footprint for the budget.
func (e *DeltaEntry) sizeBytes() int64 {
	return int64(len(e.State)) + 16*int64(len(e.Edges)) + 256
}

// Apply builds the patched graph: the base edges in submitted order, minus
// one copy of each removed pair (matched unordered, earliest edge first),
// plus the added pairs appended in order.  Errors are client errors: the
// server surfaces them as structured 400s.
func (e *DeltaEntry) Apply(add, remove [][2]int64) (*graph.Graph, error) {
	// One walk over the base consumes a count per listed pair with the
	// pair's earliest copies; listed has bit lo%4096 set for each listed
	// pair's lower endpoint lo, so most edges skip the map lookup.
	want := make(map[[2]int64]int, len(remove))
	var listed [64]uint64
	for _, rm := range remove {
		k := unordered(rm)
		want[k]++
		listed[uint64(k[0])/64%64] |= 1 << (uint64(k[0]) % 64)
	}
	n := e.NumVertices
	for _, ad := range add {
		n = max(n, ad[0]+1, ad[1]+1)
	}
	b := graph.NewBuilder(n, len(e.Edges)+len(add))
	for _, ed := range e.Edges {
		if k := unordered(ed); listed[uint64(k[0])/64%64]&(1<<(uint64(k[0])%64)) != 0 && want[k] > 0 {
			want[k]--
			continue
		}
		b.AddEdge(ed[0], ed[1])
	}
	// The last want[k] listings of each short pair are missing: walking
	// the list backwards ends at the earliest of them.
	missing := -1
	for j := len(remove) - 1; j >= 0; j-- {
		if k := unordered(remove[j]); want[k] > 0 {
			want[k]--
			missing = j
		}
	}
	if missing >= 0 {
		rm := remove[missing]
		return nil, fmt.Errorf("diff removes edge [%d %d] not present in the base graph", rm[0], rm[1])
	}
	for _, ad := range add {
		b.AddEdge(ad[0], ad[1])
	}
	return b.Build(), nil
}

// unordered is a pair with its endpoints in ascending order.
func unordered(p [2]int64) [2]int64 {
	return [2]int64{min(p[0], p[1]), max(p[0], p[1])}
}

// EdgePairs extracts a graph's edge list in submitted (edge ID) order.
func EdgePairs(g *graph.Graph) [][2]int64 {
	pairs := make([][2]int64, g.NumEdges())
	for i, e := range g.Edges() {
		pairs[i] = [2]int64{e.U, e.V}
	}
	return pairs
}

// DeltaStats is the store's observable state for /v1/metrics.
type DeltaStats struct {
	Entries   int
	LiveBytes int64
	Hits      int64
	Misses    int64
	Evictions int64
}

type deltaItem struct {
	fp    Fingerprint
	entry *DeltaEntry
	size  int64
}

// DeltaStore is the byte-budgeted LRU of retained base runs.
type DeltaStore struct {
	mu        sync.Mutex
	maxBytes  int64
	liveBytes int64
	entries   map[Fingerprint]*list.Element // of *deltaItem
	lru       *list.List                    // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

// NewDeltaStore builds a store with the given byte budget; a non-positive
// budget disables retention (Put drops, Get always misses).
func NewDeltaStore(maxBytes int64) *DeltaStore {
	return &DeltaStore{
		maxBytes: maxBytes,
		entries:  make(map[Fingerprint]*list.Element),
		lru:      list.New(),
	}
}

// Put retains (or refreshes) the entry for fp, evicting least-recently
// used entries to stay inside the budget.  Entries larger than the whole
// budget are dropped rather than thrashing the store.
func (s *DeltaStore) Put(fp Fingerprint, e *DeltaEntry) {
	size := e.sizeBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxBytes <= 0 || size > s.maxBytes {
		return
	}
	if el, ok := s.entries[fp]; ok {
		item := el.Value.(*deltaItem)
		s.liveBytes += size - item.size
		item.entry, item.size = e, size
		s.lru.MoveToFront(el)
	} else {
		s.entries[fp] = s.lru.PushFront(&deltaItem{fp: fp, entry: e, size: size})
		s.liveBytes += size
	}
	for s.liveBytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		item := back.Value.(*deltaItem)
		s.lru.Remove(back)
		delete(s.entries, item.fp)
		s.liveBytes -= item.size
		s.evictions++
	}
}

// Get returns the retained entry for fp, marking it most recently used.
// The entry is shared and must be treated as read-only.
func (s *DeltaStore) Get(fp Fingerprint) (*DeltaEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[fp]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*deltaItem).entry, true
}

// Stats snapshots the store counters.
func (s *DeltaStore) Stats() DeltaStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return DeltaStats{
		Entries:   len(s.entries),
		LiveBytes: s.liveBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
	}
}
