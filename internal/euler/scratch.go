package euler

import "repro/internal/graph"

// phase1Scratch holds the reusable working memory of one worker's Phase 1
// executions.  A worker runs Phase 1 once per merge-tree level on states of
// similar or shrinking size, so after the first level the buffers are
// warm and a tour allocates (almost) nothing.
//
// A scratch must only be reused once every slice handed out through the
// previous Phase1Result has been consumed.  The driver guarantees this:
// results are absorbed into the Registry (which copies) within the same
// superstep.  The OBPairs slice lives on as the partition's Local set and
// so keeps aliasing the scratch between tours; before the same worker's
// next tour its merge copies that set into the worker's mergeScratch
// buffer (never into this one: the tour appends OB pairs here while it
// still reads the merged Local).  A worker that sends its state away
// encodes it when the parent is on another engine instance; a co-hosted
// parent receives the state itself, whose Local still aliases the
// sender's scratch.  That is valid only because a merge child never tours
// again: before a scratch is shared between workers, OBPairs must be
// copied into memory the worker owns.
type phase1Scratch struct {
	verts   []graph.VertexID // interned vertex IDs, first-occurrence order
	htab    []int32          // open-addressing vertex→index table (idx+1, 0=empty)
	eu, ev  []int32          // per-local-edge endpoint indices
	ri      []int32          // per-remote-edge Local endpoint index
	si      []int32          // per-stub vertex index
	adjOff  []int32          // CSR offsets (nv+1)
	adjHalf []half           // CSR halves (2·|L|)
	cursor  []int32          // per-vertex next-half cursor
	unvis   []int32          // per-vertex unvisited local degree

	edgeVisited  []bool
	localVisited []bool
	inPending    []bool
	isBoundary   []bool
	pending      []int32

	items   []Item           // body of the walk in progress
	enc     []byte           // body encode buffer
	visited []graph.VertexID // Phase1Result.Visited backing
	obpairs []CoarseEdge     // Phase1Result.OBPairs backing
	recs    []PathRec        // Phase1Result.Recs backing
	seeds   []PathID         // Phase1Result.Seeds backing
}

// newPhase1Scratch returns an empty scratch; buffers grow on first use.
func newPhase1Scratch() *phase1Scratch { return &phase1Scratch{} }

// intern builds the state's local vertex index into the scratch and
// returns the number of distinct vertices: all endpoints of local edges
// plus remote-only boundary vertices, interned in first-occurrence order
// through an open-addressing table (linear probing, Fibonacci hash, at
// least half empty).  First-occurrence order is a deterministic function
// of the state, so runs stay reproducible.  On return sc.verts lists the
// vertices and sc.eu/ev, sc.ri and sc.si hold the local index of every
// local-edge endpoint, remote-edge Local endpoint and stub vertex.
//
// The count is exactly the vertex term of PartState.Longs, which is how
// the run keeps the Fig. 8 accounting without building a vertex set.
func (sc *phase1Scratch) intern(state *PartState) int32 {
	occ := 2*len(state.Local) + len(state.Remote) + len(state.Stubs)
	tabBits := 3
	for (1 << tabBits) < 2*occ {
		tabBits++
	}
	htab := grow(sc.htab, 1<<tabBits)
	sc.htab = htab
	clear(htab)
	mask := uint64(1)<<tabBits - 1
	shift := uint(64 - tabBits)
	verts := sc.verts[:0]
	// idxOf interns v, returning its local index.
	idxOf := func(v graph.VertexID) int32 {
		h := (uint64(v) * 0x9E3779B97F4A7C15) >> shift
		for {
			e := htab[h]
			if e == 0 {
				verts = append(verts, v)
				htab[h] = int32(len(verts))
				return int32(len(verts) - 1)
			}
			if verts[e-1] == v {
				return e - 1
			}
			h = (h + 1) & mask
		}
	}

	// Translate every edge endpoint once; the CSR build reads the
	// translation twice (degree count, then fill).
	eu := grow(sc.eu, len(state.Local))
	ev := grow(sc.ev, len(state.Local))
	sc.eu, sc.ev = eu, ev
	for i, e := range state.Local {
		eu[i] = idxOf(e.U)
		ev[i] = idxOf(e.V)
	}
	ri := grow(sc.ri, len(state.Remote))
	sc.ri = ri
	for i, r := range state.Remote {
		ri[i] = idxOf(r.Local)
	}
	si := grow(sc.si, len(state.Stubs))
	sc.si = si
	for i, st := range state.Stubs {
		si[i] = idxOf(st.Vertex)
	}
	sc.verts = verts
	return int32(len(verts))
}

// grow returns a length-n slice reusing s's storage when possible.
// Contents are unspecified; callers overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growBool returns a zeroed length-n slice reusing s's storage if possible.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}
