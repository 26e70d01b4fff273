package euler

import (
	"fmt"
	"time"

	"repro/internal/graph"
)

// Phase1Stats records what one Phase 1 execution saw and did; the expected
// time complexity O(|B|+|I|+|L|) of Fig. 7 is derived from it.
type Phase1Stats struct {
	Boundary int64 // |B|: vertices with remote edges (stored or stubbed)
	Internal int64 // |I|: local vertices without remote edges
	Local    int64 // |L|: coarse local edges at Phase 1 start
	OB       int64 // odd-degree boundary vertices
	EB       int64 // even-degree boundary vertices
	Paths    int64 // OB-pair paths found
	Cycles   int64 // EB + IV cycles found (non-trivial)
	Trivial  int64 // trivial EB singletons (no unvisited local edges)
	Items    int64 // total body items emitted
}

// Expected returns the Fig. 7 complexity measure |B|+|I|+|L|.
func (s Phase1Stats) Expected() int64 { return s.Boundary + s.Internal + s.Local }

// Phase1Result is the output of one Phase 1 execution on a partition.
//
// OBPairs is always freshly allocated: it becomes the state's Local set,
// and a state owns everything it points to.  When a scratch was supplied
// to phase1, Recs, Seeds and Visited alias scratch memory and are only
// valid until the scratch's next tour; consumers (Registry.Absorb, the
// retention recorder) copy what they keep.
type Phase1Result struct {
	// OBPairs are the coarse OB-pair edges replacing the consumed local
	// edges; they become the partition's Local set for the next level.
	// The slice holds exactly Stats.OB/2 entries.
	OBPairs []CoarseEdge
	// Recs is the pathMap metadata for every path/cycle found, in
	// deterministic discovery order.
	Recs []PathRec
	// Seeds are cycles that had to be started at a vertex not reachable
	// from any boundary vertex or prior walk of this run: the master cycle
	// at the merge-tree root, or evidence of a disconnected input.
	Seeds []PathID
	// Visited lists the global vertex IDs touched by walks, for the
	// registry's global visited map.
	Visited []graph.VertexID
	Stats   Phase1Stats
	// Prep is the time spent building the partition object (vertex index,
	// CSR, classification); Tour is the walk time.  Together they provide
	// the "Create Partition Object" and "Phase 1 Tour" splits of Fig. 6.
	Prep, Tour time.Duration
}

// half is one direction of a coarse local edge in the partition-local CSR.
type half struct {
	to   int32 // local vertex index
	edge int32 // index into the local edge slice; the EdgeID for a leaf held in place
}

// phase1 executes Alg. 1 on a partition state: OB paths first, then EB
// cycles, then internal-vertex cycles started from previously visited
// vertices (the constructive form of Lemma 3).  Bodies go to the sink under
// deterministic PathIDs; state.Local is consumed and replaced by the
// returned OBPairs by the caller.
//
// A leaf held in place (state.onGraph) brings no Local copy: its
// partition object is built from the resident graph.  Its vertices come
// in the order the leaf recorded, which is intern's order over the copied
// leaf, and each vertex's halves are the graph's open halves, in EdgeID
// order, which is the copied leaf's CSR: both tours emit the same bodies.
// A half then names its edge by EdgeID, the walk consumes the leaf's open
// marks, and such a leaf can be toured once.
//
// globallyVisited reports whether a vertex was absorbed into any body at an
// earlier level; seed cycles prefer such vertices so that Phase 3 can
// always splice them (see Registry.Unroll).  It may be nil at level 0.
//
// sc supplies reusable working memory; nil allocates a private scratch, in
// which case no slice of the result aliases shared storage.
func phase1(state *PartState, level int, sink bodySink, globallyVisited func(graph.VertexID) bool, sc *phase1Scratch) (*Phase1Result, error) {
	prepStart := time.Now()
	if sc == nil {
		sc = newPhase1Scratch()
	}
	res := &Phase1Result{}

	// open[h.edge] tells an unwalked half: the leaf's marks by EdgeID for
	// a leaf held in place, one mark per local edge otherwise.
	var nv int32
	var verts []graph.VertexID
	var open []bool
	l := state.onGraph
	if l != nil {
		verts, open = l.verts, l.open
		nv = int32(len(verts))
		sc.buildCSRInPlace(state, l)
	} else {
		nv = sc.intern(state)
		verts = sc.verts
		sc.buildCSR(state, nv)
		open = grow(sc.open, len(state.Local))
		sc.open = open
		for i := range open {
			open[i] = true
		}
	}
	isBoundary, adjOff, adjHalf, cursor := sc.isBoundary, sc.adjOff, sc.adjHalf, sc.cursor

	unvis := grow(sc.unvis, int(nv))
	sc.unvis = unvis
	for i := int32(0); i < nv; i++ {
		unvis[i] = adjOff[i+1] - adjOff[i]
	}
	localVisited := growBool(sc.localVisited, int(nv)) // touched by a walk in this run
	sc.localVisited = localVisited
	pending := sc.pending[:0] // visited vertices that kept unvisited edges
	inPending := growBool(sc.inPending, int(nv))
	sc.inPending = inPending

	// Classification and stats.
	for i := int32(0); i < nv; i++ {
		if isBoundary[i] {
			res.Stats.Boundary++
		} else {
			res.Stats.Internal++
		}
	}
	res.Stats.Local = state.localLen()
	for i := int32(0); i < nv; i++ {
		localDeg := adjOff[i+1] - adjOff[i]
		if localDeg%2 == 1 {
			if !isBoundary[i] {
				return nil, fmt.Errorf("euler: partition %d level %d: vertex %d has odd local degree %d but no remote edges (parity invariant broken)",
					state.Parent, level, verts[i], localDeg)
			}
			res.Stats.OB++
		} else if isBoundary[i] {
			res.Stats.EB++
		}
	}

	res.Visited = sc.visited[:0]
	res.OBPairs = make([]CoarseEdge, 0, res.Stats.OB/2) // one per OB pair (Lemma 1)
	res.Recs = sc.recs[:0]
	res.Seeds = sc.seeds[:0]
	// The tour's bodies lie back to back in one block: a tour consumes
	// every local edge once, so the block takes exactly Stats.Local items
	// and never regrows.  A sink that keeps typed bodies gets a fresh
	// block, which it then owns; otherwise the slot's scratch block
	// serves every tour.
	var block []bodyItem
	if sink.typed == nil {
		if int64(cap(sc.block)) < res.Stats.Local {
			sc.block = make([]bodyItem, 0, res.Stats.Local)
		}
		block = sc.block[:0]
	} else if res.Stats.Local > 0 {
		block = make([]bodyItem, 0, res.Stats.Local)
	}
	defer func() {
		// Hand the (possibly regrown) backing arrays back for the next tour.
		if sink.typed == nil {
			sc.block = block[:0]
		}
		sc.pending = pending
		sc.visited = res.Visited
		sc.recs = res.Recs
		sc.seeds = res.Seeds
	}()

	res.Prep = time.Since(prepStart)
	tourStart := time.Now()
	defer func() { res.Tour = time.Since(tourStart) }()

	next := func(v int32) (half, bool) {
		for cursor[v] < adjOff[v+1] {
			h := adjHalf[cursor[v]]
			if open[h.edge] {
				return h, true
			}
			cursor[v]++
		}
		return half{}, false
	}

	touch := func(v int32) {
		if !localVisited[v] {
			localVisited[v] = true
			res.Visited = append(res.Visited, verts[v])
		}
	}

	// walk traverses a maximal trail from start, consuming unvisited local
	// edges, appends its items to the block and returns the end vertex.
	walk := func(start int32) int32 {
		cur := start
		touch(cur)
		for {
			h, ok := next(cur)
			if !ok {
				return cur
			}
			open[h.edge] = false
			ref := int64(h.edge) // held in place: an edge item, by EdgeID
			if l == nil {
				e := &state.Local[h.edge]
				ref = packRef(e.Kind, e.Ref)
			}
			unvis[cur]--
			unvis[h.to]--
			block = append(block, bodyItem{ref: ref, to: verts[h.to]})
			if unvis[cur] > 0 && !inPending[cur] {
				inPending[cur] = true
				pending = append(pending, cur)
			}
			cur = h.to
			touch(cur)
		}
	}

	// record registers the body the last walk appended after mark.
	var seq int64
	record := func(t PathType, src, dst graph.VertexID, mark int) (PathID, error) {
		id := MakePathID(level, state.Parent, seq)
		seq++
		body := block[mark:len(block):len(block)]
		var err error
		if sink.typed != nil {
			err = sink.typed(id, src, body)
		} else {
			// Header, kind bitmap and ~8 varint bytes per item: one
			// allocation instead of append's doubling chain on a long path.
			if n := len(body); cap(sc.enc) < 16+n/8+8*n {
				sc.enc = make([]byte, 0, 16+n/8+8*n)
			}
			sc.enc = appendBody(sc.enc[:0], src, body)
			err = sink.encoded(id, sc.enc)
		}
		if err != nil {
			return 0, fmt.Errorf("euler: spilling path %d: %w", id, err)
		}
		res.Recs = append(res.Recs, PathRec{
			ID: id, Type: t, Src: src, Dst: dst,
			Level: level, Part: state.Parent, Items: int64(len(body)),
		})
		res.Stats.Items += int64(len(body))
		return id, nil
	}

	// --- OB phase (Alg. 1 lines 7–8): maximal paths between odd vertices.
	// A vertex's unvisited-degree parity equals its original parity until
	// it serves as a walk endpoint, so "odd unvisited degree" selects
	// exactly the OBs that have not yet been paired (Lemma 1).
	for i := int32(0); i < nv; i++ {
		if unvis[i]%2 != 1 {
			continue
		}
		mark := len(block)
		end := walk(i)
		if end == i {
			return nil, fmt.Errorf("euler: partition %d level %d: OB walk from %d returned to start (parity bug)",
				state.Parent, level, verts[i])
		}
		if !isBoundary[end] {
			return nil, fmt.Errorf("euler: partition %d level %d: OB walk from %d ended at internal vertex %d (Lemma 1 violated)",
				state.Parent, level, verts[i], verts[end])
		}
		id, err := record(OBPath, verts[i], verts[end], mark)
		if err != nil {
			return nil, err
		}
		res.OBPairs = append(res.OBPairs, CoarseEdge{
			U: verts[i], V: verts[end], Kind: ItemPath, Ref: id,
		})
		res.Stats.Paths++
	}

	// --- EB phase (lines 9–10): one traversal from every even-degree
	// boundary vertex; after the OB phase every vertex has even unvisited
	// degree, so a maximal trail closes into a cycle (Lemma 2).  EBs with
	// no unvisited edges are the paper's trivial singleton tours.
	for i := int32(0); i < nv; i++ {
		if !isBoundary[i] || (adjOff[i+1]-adjOff[i])%2 != 0 {
			continue // internal, or an OB already handled above
		}
		if unvis[i] == 0 {
			res.Stats.Trivial++
			continue
		}
		mark := len(block)
		end := walk(i)
		if end != i {
			return nil, fmt.Errorf("euler: partition %d level %d: EB walk from %d ended at %d (Lemma 2 violated)",
				state.Parent, level, verts[i], verts[end])
		}
		if _, err := record(EBCycle, verts[i], verts[i], mark); err != nil {
			return nil, err
		}
		res.Stats.Cycles++
	}

	// --- IV phase (lines 11–13): cycles from vertices already on a prior
	// walk (Lemma 3 made constructive by the pending stack), with seeding
	// for components no walk of this run has touched.
	remaining := res.Stats.Local - res.Stats.Items // every item consumed one local edge
	for remaining > 0 {
		start := int32(-1)
		for len(pending) > 0 {
			cand := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			inPending[cand] = false
			if unvis[cand] > 0 {
				start = cand
				break
			}
		}
		seeded := false
		if start < 0 {
			// No walk of this run touches the remaining edges.  Seed at a
			// globally visited vertex if one exists, so that Phase 3 can
			// splice the resulting cycle into an earlier body; otherwise
			// fall back to the first vertex with unvisited edges (legal
			// only for the first body of the whole run — the future master
			// cycle — which the driver validates via Seeds).
			seeded = true
			fallback := int32(-1)
			for i := int32(0); i < nv; i++ {
				if unvis[i] == 0 {
					continue
				}
				if fallback < 0 {
					fallback = i
				}
				if globallyVisited != nil && globallyVisited(verts[i]) {
					start = i
					break
				}
			}
			if start < 0 {
				start = fallback
			}
			if start < 0 {
				return nil, fmt.Errorf("euler: partition %d level %d: %d unvisited edges but no start vertex (internal inconsistency)",
					state.Parent, level, remaining)
			}
		}
		mark := len(block)
		end := walk(start)
		if end != start {
			return nil, fmt.Errorf("euler: partition %d level %d: IV walk from %d ended at %d (Lemma 2 violated)",
				state.Parent, level, verts[start], verts[end])
		}
		id, err := record(IVCycle, verts[start], verts[start], mark)
		if err != nil {
			return nil, err
		}
		if seeded {
			res.Seeds = append(res.Seeds, id)
		}
		res.Stats.Cycles++
		remaining -= int64(len(block) - mark)
	}

	return res, nil
}

// buildCSR fills the scratch's partition object for a state interned by
// intern (nv vertices): boundary flags, and the CSR over Local, whose
// halves name their edge by index in Local, with every walk cursor at the
// start of its vertex's halves.
func (sc *phase1Scratch) buildCSR(state *PartState, nv int32) {
	// Boundary classification straight off the remote edges and stubs,
	// replacing the RemoteDegree map (only the >0 test was ever used).
	isBoundary := growBool(sc.isBoundary, int(nv))
	sc.isBoundary = isBoundary
	for _, i := range sc.ri {
		isBoundary[i] = true
	}
	for i, st := range state.Stubs {
		if st.Count > 0 {
			isBoundary[sc.si[i]] = true
		}
	}

	eu, ev := sc.eu, sc.ev
	adjOff := grow(sc.adjOff, int(nv)+1)
	sc.adjOff = adjOff
	clear(adjOff)
	for i := range eu {
		adjOff[eu[i]+1]++
		adjOff[ev[i]+1]++
	}
	for i := int32(1); i <= nv; i++ {
		adjOff[i] += adjOff[i-1]
	}
	adjHalf := grow(sc.adjHalf, 2*len(state.Local))
	sc.adjHalf = adjHalf
	cursor := grow(sc.cursor, int(nv))
	sc.cursor = cursor
	copy(cursor, adjOff[:nv])
	for ei := range eu {
		u, v := eu[ei], ev[ei]
		adjHalf[cursor[u]] = half{to: v, edge: int32(ei)}
		cursor[u]++
		adjHalf[cursor[v]] = half{to: u, edge: int32(ei)}
		cursor[v]++
	}
	copy(cursor, adjOff[:nv]) // reset walk cursors
}

// buildCSRInPlace is buildCSR for a leaf held in place: it compacts each
// vertex's open graph halves, in EdgeID order, into the CSR, each half
// naming its edge by EdgeID.  Nothing is interned or copied out of a
// Local set.
func (sc *phase1Scratch) buildCSRInPlace(state *PartState, l *graphLeaf) {
	nv := len(l.verts)
	isBoundary := growBool(sc.isBoundary, nv)
	sc.isBoundary = isBoundary
	for _, run := range state.Remote {
		for _, r := range run {
			isBoundary[l.idx[r.Local]] = true
		}
	}
	for _, st := range state.Stubs {
		if st.Count > 0 {
			isBoundary[l.idx[st.Vertex]] = true
		}
	}

	adjOff := grow(sc.adjOff, nv+1)
	sc.adjOff = adjOff
	adjHalf := grow(sc.adjHalf, int(2*l.locals))
	sc.adjHalf = adjHalf
	k := int32(0)
	for i, v := range l.verts {
		adjOff[i] = k
		for _, h := range l.g.Adj(v) {
			if l.open[h.Edge] {
				adjHalf[k] = half{to: l.idx[h.To], edge: int32(h.Edge)}
				k++
			}
		}
	}
	adjOff[nv] = k
	cursor := grow(sc.cursor, nv)
	sc.cursor = cursor
	copy(cursor, adjOff[:nv])
}
