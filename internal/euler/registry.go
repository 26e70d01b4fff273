package euler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/spill"
)

// Registry is the run-wide book-keeping the paper persists to disk between
// phases (here it lives in memory; a run persists as its RunRecord): the
// pathMap metadata of every path and cycle, the anchored-cycle index used
// by Phase 3's pivot-vertex splicing, and the global visited-vertex map
// that keeps seed cycles splicable.  Path bodies live in the run's spill
// store when it has one, otherwise here, one slot per pathMap rank: typed
// as Phase 1 toured them, or encoded as they arrived (an absorb band or
// a retained record).
//
// Concurrency model: workers absorb their Phase 1 results concurrently
// within a superstep, and their active vertex sets are disjoint (a vertex
// belongs to exactly one partition per level).  The visited map is an
// atomic bitset, so IsVisited — queried from inside every worker's tour —
// is a plain atomic load, and marking is an atomic OR.  Path metadata and
// kept bodies go into a per-worker shard that no other worker touches;
// Seal merges the shards into read-only dense indexes once, after the
// run, without any cross-worker locking.  Only the master/seed
// bookkeeping (a few entries per run) takes a mutex.
type Registry struct {
	store spill.Store

	// visited is the global visited-vertex bitset, one bit per vertex,
	// updated with atomic OR and read with atomic loads.
	visited  []atomic.Uint32
	numVerts int64

	// shards holds per-worker absorbed path metadata until Seal.
	shards []registryShard

	mu     sync.Mutex // guards master and seeds (cold path)
	master PathID
	seeds  []PathID // floating seed cycles, in absorption order

	// sealed flips once Seal has merged the shards; afterwards the
	// indexes below are immutable and read without locks.
	sealed  atomic.Bool
	sealErr error
	// recs is the pathMap sorted by ID.  A record's position is its rank,
	// which Phase 3 indexes its per-path state by.  IDs are consecutive
	// within one Phase 1 execution, so idRuns — the first ID and rank of
	// every run of consecutive IDs — turns an ID into its rank in a search
	// over a few entries per partition and level, not over every record.
	recs   []PathRec
	idRuns []idRun
	// typed[k] or encoded[k] is the body of recs[k] when the registry
	// keeps bodies; each is nil until a body of its form arrives.
	typed   [][]bodyItem
	encoded [][]byte
	// The anchored-cycle index: anchorIDs[anchorOff[k]:anchorOff[k+1]] are
	// the cycles pivoting at anchorVerts[k] (ascending), in discovery
	// order.  anchorScreen holds the pivots, so the Phase 3 walker pays one
	// bit test per body item, not a lookup.
	anchorVerts  []graph.VertexID
	anchorOff    []int32
	anchorIDs    []PathID
	anchorScreen vertexScreen
	// steps is the circuit length the records imply: every body item is an
	// edge except the one reference that consumes each OB path.
	steps int64
}

// idRun is a maximal run of consecutive IDs in the sorted pathMap.
type idRun struct {
	first PathID
	rank  int
}

// vertexScreen is a bitset over the graph's vertices in front of a sparse
// vertex-keyed index: mayHold is true for every added vertex and for any
// vertex beyond the set's range (only a corrupt body names one), which the
// index behind it then resolves.
type vertexScreen []uint64

func newVertexScreen(numVerts int64) vertexScreen {
	return make(vertexScreen, (numVerts+63)/64)
}

func (s vertexScreen) add(v graph.VertexID) {
	if i := uint64(v); i>>6 < uint64(len(s)) {
		s[i>>6] |= 1 << (i & 63)
	}
}

func (s vertexScreen) mayHold(v graph.VertexID) bool {
	i := uint64(v)
	return i>>6 >= uint64(len(s)) || s[i>>6]&(1<<(i&63)) != 0
}

// anchor is one (pivot vertex, cycle) pair on its way into the index.
type anchor struct {
	v  graph.VertexID
	id PathID
}

// registryShard is one worker's private absorption buffer.  Padding keeps
// concurrently appended shards off each other's cache lines.
type registryShard struct {
	recs    []PathRec
	typed   [][]keptBody[[]bodyItem]
	encoded [][]keptBody[[]byte]
	_       [56]byte
}

// keptBody is a kept body on its way to its rank slot.
type keptBody[B any] struct {
	id   PathID
	body B
}

// appendKept appends a kept body to a shard's list, which grows in
// doubling chunks that are never copied.
func appendKept[B any](chunks [][]keptBody[B], b keptBody[B]) [][]keptBody[B] {
	n := len(chunks)
	if n == 0 || len(chunks[n-1]) == cap(chunks[n-1]) {
		chunks = append(chunks, make([]keptBody[B], 0, 64<<min(n, 6)))
		n++
	}
	chunks[n-1] = append(chunks[n-1], b)
	return chunks
}

// NewRegistry creates a Registry over a graph with numVertices vertices
// and one absorption shard per worker; bodies go to store unless it is nil.
func NewRegistry(store spill.Store, numVertices int64, workers int) *Registry {
	if workers < 1 {
		workers = 1
	}
	return &Registry{
		store:    store,
		visited:  make([]atomic.Uint32, (numVertices+31)/32),
		numVerts: numVertices,
		shards:   make([]registryShard, workers),
	}
}

// IsVisited reports whether v has been absorbed into any body so far.
// It is a single atomic load, safe to call from every worker at once.
func (r *Registry) IsVisited(v graph.VertexID) bool {
	return r.visited[v>>5].Load()&(1<<(uint(v)&31)) != 0
}

// Absorb registers worker w's Phase 1 result: pathMap metadata, seed
// cycles, and visited vertices.  isRoot marks the final (root partition)
// result, whose first cycle becomes the master cycle that Phase 3 unrolls
// first.  The result's slices are copied; the caller may reuse them.
//
// Seed cycles (components not reachable from any walk of their own Phase 1
// run) are recorded as floating roots: Phase 3 expands each into its own
// closed walk and stitches the walks at shared vertices, so seeds are
// legal at any level (see phase3.go).
func (r *Registry) Absorb(w int, res *Phase1Result, isRoot bool) error {
	if w < 0 || w >= len(r.shards) {
		return fmt.Errorf("euler: absorb from out-of-range worker %d (have %d shards)", w, len(r.shards))
	}
	if r.sealed.Load() {
		return fmt.Errorf("euler: absorb into sealed registry")
	}
	if isRoot || len(res.Seeds) > 0 {
		r.mu.Lock()
		if isRoot && r.master == 0 {
			if len(res.Seeds) > 0 {
				r.master = res.Seeds[0]
			} else if len(res.Recs) > 0 {
				r.master = res.Recs[0].ID
			}
		}
		for _, id := range res.Seeds {
			if id != r.master {
				r.seeds = append(r.seeds, id)
			}
		}
		r.mu.Unlock()
	}

	sh := &r.shards[w]
	sh.recs = append(sh.recs, res.Recs...)
	for _, v := range res.Visited {
		r.visited[v>>5].Or(1 << (uint(v) & 31))
	}
	return nil
}

// sink is Phase 1's body seam into this registry: it keeps typed bodies
// as toured, unless the bodies spill.
func (r *Registry) sink() bodySink {
	if r.store != nil {
		return bodySink{encoded: r.putBody}
	}
	return bodySink{typed: r.putItems}
}

// shard returns the shard of id's part, which only that part's worker
// writes, so puts go in unlocked.
func (r *Registry) shard(id PathID) (*registryShard, error) {
	part := pathPart(id)
	if part >= len(r.shards) {
		return nil, fmt.Errorf("euler: body %d names part %d outside the %d shards", id, part, len(r.shards))
	}
	return &r.shards[part], nil
}

// putItems keeps a typed body, and with it the block it lies in.  Seal
// rejects a body with no pathMap record and a second body under one ID.
func (r *Registry) putItems(id PathID, items []bodyItem) error {
	sh, err := r.shard(id)
	if err != nil {
		return err
	}
	sh.typed = appendKept(sh.typed, keptBody[[]bodyItem]{id, items})
	return nil
}

// putBody writes an encoded body out to the spill store, or keeps a copy
// of it encoded; it does not keep data.
func (r *Registry) putBody(id PathID, data []byte) error {
	if r.store != nil {
		return r.store.Put(id, data)
	}
	sh, err := r.shard(id)
	if err != nil {
		return err
	}
	sh.encoded = appendKept(sh.encoded, keptBody[[]byte]{id, append([]byte(nil), data...)})
	return nil
}

// body returns the encoded body of path id, from the spill store or as
// it arrived; a typed body has none.  It requires a sealed registry.
func (r *Registry) body(id PathID) ([]byte, error) {
	if r.store != nil {
		return r.store.Get(id)
	}
	if k, ok := r.rank(id); ok && r.encoded != nil && r.encoded[k] != nil {
		return r.encoded[k], nil
	}
	return nil, fmt.Errorf("euler: path %d has no body", id)
}

// Seal merges the per-worker absorption shards into the read-optimised
// pathMap and anchored-cycle index.  It must run after the BSP run (and
// after PromoteFirstSeed, so the master is final) and before Phase 3 reads;
// it is idempotent.  Shard order reproduces absorption order: a vertex's
// owning representative only grows across levels (parents keep the larger
// leaf ID), so per-vertex anchored lists come out in discovery order.
func (r *Registry) Seal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealLocked()
}

func (r *Registry) sealLocked() error {
	if r.sealed.Load() {
		return r.sealErr
	}
	total := 0
	for i := range r.shards {
		total += len(r.shards[i].recs)
	}
	recs := make([]PathRec, 0, total)
	var anch []anchor
	for i := range r.shards {
		for _, rec := range r.shards[i].recs {
			// Cycles are anchored at their pivot vertex for Phase 3
			// splicing; the master itself is unrolled directly, and OB
			// paths are referenced by the coarse edges that consumed them.
			if rec.Type != OBPath && rec.ID != r.master {
				anch = append(anch, anchor{v: rec.Src, id: rec.ID})
			}
		}
		recs = append(recs, r.shards[i].recs...)
		r.shards[i].recs = nil
	}
	r.sealErr = r.buildIndex(recs, anch)
	r.sealed.Store(true)
	return r.sealErr
}

// buildIndex installs the sealed indexes from the pathMap records (in any
// order; sorted in place), the anchored cycles (in discovery order, which
// is kept within each vertex) and the shards' kept bodies, each moved to
// the slot of its record's rank.  On error nothing is installed.
func (r *Registry) buildIndex(recs []PathRec, anch []anchor) error {
	slices.SortFunc(recs, func(a, b PathRec) int { return cmp.Compare(a.ID, b.ID) })
	var steps int64
	var runs []idRun
	for i := range recs {
		if i > 0 && recs[i].ID == recs[i-1].ID {
			return fmt.Errorf("euler: duplicate path ID %d", recs[i].ID)
		}
		if i == 0 || recs[i].ID != recs[i-1].ID+1 {
			runs = append(runs, idRun{first: recs[i].ID, rank: i})
		}
		steps += recs[i].Items
		if recs[i].Type == OBPath {
			steps--
		}
	}
	var typed [][]bodyItem
	var encoded [][]byte
	slot := func(id PathID) (int, error) {
		k, ok := rankIn(runs, len(recs), id)
		switch {
		case !ok:
			return 0, fmt.Errorf("euler: body %d has no pathMap record", id)
		case typed != nil && typed[k] != nil, encoded != nil && encoded[k] != nil:
			return 0, fmt.Errorf("euler: duplicate body %d", id)
		}
		return k, nil
	}
	for i := range r.shards {
		sh := &r.shards[i]
		for _, chunk := range sh.typed {
			for _, b := range chunk {
				k, err := slot(b.id)
				if err != nil {
					return err
				}
				if typed == nil {
					typed = make([][]bodyItem, len(recs))
				}
				typed[k] = b.body
			}
		}
		for _, chunk := range sh.encoded {
			for _, b := range chunk {
				k, err := slot(b.id)
				if err != nil {
					return err
				}
				if encoded == nil {
					encoded = make([][]byte, len(recs))
				}
				encoded[k] = b.body
			}
		}
		sh.typed, sh.encoded = nil, nil
	}
	slices.SortStableFunc(anch, func(a, b anchor) int { return cmp.Compare(a.v, b.v) })
	r.anchorScreen = newVertexScreen(r.numVerts)
	r.anchorIDs = make([]PathID, len(anch))
	for i, a := range anch {
		if i == 0 || a.v != anch[i-1].v {
			r.anchorVerts = append(r.anchorVerts, a.v)
			r.anchorOff = append(r.anchorOff, int32(i))
			r.anchorScreen.add(a.v)
		}
		r.anchorIDs[i] = a.id
	}
	r.anchorOff = append(r.anchorOff, int32(len(anch)))
	r.recs, r.idRuns, r.typed, r.encoded, r.steps = recs, runs, typed, encoded, steps
	return nil
}

// ensureSealed lazily seals for read paths reached without an explicit
// Seal (hand-built registries in tests), returning the seal error so callers
// that can propagate it do.  Steady-state reads skip the mutex.
func (r *Registry) ensureSealed() error {
	if r.sealed.Load() {
		return r.sealErr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealLocked()
}

// rank returns the position of id in the sorted pathMap.  It requires a
// sealed registry.
func (r *Registry) rank(id PathID) (int, bool) {
	return rankIn(r.idRuns, len(r.recs), id)
}

// rankIn is rank over the runs of a pathMap of n records.
func rankIn(runs []idRun, n int, id PathID) (int, bool) {
	// The last run starting at or below id is the only one that can hold it.
	lo, hi := 0, len(runs)
	for lo < hi {
		if mid := (lo + hi) / 2; runs[mid].first <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	run, end := runs[lo-1], n
	if lo < len(runs) {
		end = runs[lo].rank
	}
	off := uint64(id) - uint64(run.first)
	return run.rank + int(off), off < uint64(end-run.rank)
}

// anchorRank returns the position of v among the pivot vertices.  It
// requires a sealed registry.
func (r *Registry) anchorRank(v graph.VertexID) (int, bool) {
	return slices.BinarySearch(r.anchorVerts, v)
}

// Rec returns the metadata for a path ID.  A failed seal leaves the
// pathMap empty; Unroll reports the seal error itself.
func (r *Registry) Rec(id PathID) (PathRec, bool) {
	_ = r.ensureSealed()
	k, ok := r.rank(id)
	if !ok {
		return PathRec{}, false
	}
	return r.recs[k], true
}

// NumPaths returns the number of registered paths and cycles (see Rec for
// the failed-seal behaviour).
func (r *Registry) NumPaths() int {
	_ = r.ensureSealed()
	return len(r.recs)
}

// Master returns the root master cycle's ID, or 0 before the root level
// has been absorbed.
func (r *Registry) Master() PathID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.master
}

// PromoteFirstSeed makes the earliest seed cycle the master when the root
// partition produced no bodies of its own (possible only when the input's
// edges do not all reach the root, i.e. a disconnected input); Phase 3 then
// reports the disconnection precisely.  It returns false if there are no
// seeds either.
func (r *Registry) PromoteFirstSeed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.master != 0 {
		return true
	}
	if len(r.seeds) == 0 {
		return false
	}
	sort.Slice(r.seeds, func(i, j int) bool { return r.seeds[i] < r.seeds[j] })
	r.master = r.seeds[0]
	r.seeds = r.seeds[1:]
	return true
}

// Seeds returns the floating seed cycles absorbed so far (excluding the
// master), sorted by ID so Phase 3's stitching order is deterministic.
func (r *Registry) Seeds() []PathID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]PathID(nil), r.seeds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AnchoredAt returns the IDs of cycles anchored at v, in discovery order.
// The returned slice is shared; callers must not modify it.
func (r *Registry) AnchoredAt(v graph.VertexID) []PathID {
	_ = r.ensureSealed()
	k, ok := r.anchorRank(v)
	if !ok {
		return nil
	}
	return r.anchorIDs[r.anchorOff[k]:r.anchorOff[k+1]]
}
