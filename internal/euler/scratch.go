package euler

import "repro/internal/graph"

// phase1Scratch holds the reusable working memory of one engine slot's
// Phase 1 executions.  The engine runs at most Slots() workers at once and
// each Compute call holds its slot until it returns, so a program keeps
// one phase1Scratch and one mergeScratch per slot, not per worker; a slot
// tours states of similar size level after level, so after the first tour
// the buffers are warm and a tour allocates (almost) nothing.
//
// The ownership rule that makes this safe: a PartState owns everything it
// points to, and nothing in a scratch outlives the Compute call that
// filled it.  The one exception is a leaf held in place (graphLeaf): it
// borrows the resident graph and the assignment read-only for the run and
// shares its plan's vertex index and open marks with the other leaves,
// writing only its own edges' marks; the caller drops the borrow when it
// gives the toured state its OB pairs.  Phase 1 writes OBPairs, the
// state's next Local set, into a fresh exactly sized slice.  Recs, Seeds
// and Visited stay in the scratch; the registry absorb and the retention
// recorder copy them within the same call.  The merge builds the merged
// Local in its slot's mergeScratch and the tour in the same call replaces
// it with the fresh OBPairs (the merge writes there, never into this
// scratch: the tour appends OB pairs while it still reads the merged
// Local).  The merge moves the child's remote-edge runs, and the delivered
// parked batches, into the parent and consumes the child: no other state
// points at those runs afterwards.  The merge's stub-list swap hands the
// parent's old list to the slot, which no state references afterwards.
// A tour's bodies go into one block of typed items.  When the sink keeps
// typed bodies (the in-process registry) the tour allocates the block
// fresh and the block belongs to the registry, which holds each body as
// a subslice of it; otherwise the block is this scratch's, and the tour
// hands the sink each body encoded before it walks the next.  A toured
// state may therefore move to another worker, by pointer or
// encoded, and the slot may tour any other state next.
type phase1Scratch struct {
	verts   []graph.VertexID // interned vertex IDs, first-occurrence order
	htab    []int32          // open-addressing vertex→index table (idx+1, 0=empty)
	eu, ev  []int32          // per-local-edge endpoint indices
	ri      []int32          // per-remote-edge Local endpoint index
	si      []int32          // per-stub vertex index
	adjOff  []int32          // CSR offsets (nv+1)
	adjHalf []half           // CSR halves (2·|L|)
	open    []bool           // per-local-edge not yet walked
	cursor  []int32          // per-vertex next-half cursor
	unvis   []int32          // per-vertex unvisited local degree

	localVisited []bool
	inPending    []bool
	isBoundary   []bool
	pending      []int32

	block   []bodyItem       // the tour's bodies, when the sink does not keep them
	enc     []byte           // body encode buffer
	visited []graph.VertexID // Phase1Result.Visited backing
	recs    []PathRec        // Phase1Result.Recs backing
	seeds   []PathID         // Phase1Result.Seeds backing
}

// newPhase1Scratch returns an empty scratch; buffers grow on first use.
func newPhase1Scratch() *phase1Scratch { return &phase1Scratch{} }

// internStartBits caps the intern table's starting size at 2¹⁰ slots: the
// table doubles as vertices arrive, so it tracks the distinct vertex
// count rather than the endpoint occurrences that bound it.
const internStartBits = 10

// intern builds the state's local vertex index into the scratch and
// returns the number of distinct vertices: all endpoints of local edges
// plus remote-only boundary vertices, interned in first-occurrence order
// through an open-addressing table (linear probing, Fibonacci hash).  The
// table starts at 2¹⁰ slots, fewer for a small state, and doubles once
// it passes half full, re-inserting the vertices in order so that every
// index stays put.  First-occurrence order is a deterministic function of
// the state, so runs stay reproducible.  On return sc.verts lists the
// vertices and sc.eu/ev, sc.ri and sc.si hold the local index of every
// local-edge endpoint, remote-edge Local endpoint and stub vertex.
//
// The count is exactly the vertex term of PartState.Longs, which is how
// the run keeps the Fig. 8 accounting without building a vertex set.
func (sc *phase1Scratch) intern(state *PartState) int32 {
	nr := state.remoteLen()
	occ := 2*len(state.Local) + nr + len(state.Stubs)
	tabBits := 3
	for tabBits < internStartBits && (1<<tabBits) < 2*occ {
		tabBits++
	}
	const fib = 0x9E3779B97F4A7C15
	verts := sc.verts[:0]
	var htab []int32 // vertex→index table (idx+1, 0=empty)
	var mask uint64
	var shift uint
	// resize empties the table at 2^tabBits slots and re-inserts verts.
	resize := func() {
		htab = grow(sc.htab, 1<<tabBits)
		sc.htab = htab
		clear(htab)
		mask = uint64(1)<<tabBits - 1
		shift = uint(64 - tabBits)
		for i, v := range verts {
			h := (uint64(v) * fib) >> shift
			for htab[h] != 0 {
				h = (h + 1) & mask
			}
			htab[h] = int32(i + 1)
		}
	}
	resize()
	// idxOf interns v, returning its local index.
	idxOf := func(v graph.VertexID) int32 {
		h := (uint64(v) * fib) >> shift
		for {
			e := htab[h]
			if e == 0 {
				verts = append(verts, v)
				htab[h] = int32(len(verts))
				if 2*len(verts) > len(htab) {
					tabBits++
					resize()
				}
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
	ri := grow(sc.ri, nr)[:0]
	for _, run := range state.Remote {
		for _, r := range run {
			ri = append(ri, idxOf(r.Local))
		}
	}
	sc.ri = ri
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
