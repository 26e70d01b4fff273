package euler

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
)

// BuildLeafStates constructs the level-0 partition states from the
// partitioned graph, applying the mode's remote-edge storage policy:
//
//   - ModeCurrent: every cut edge is stored by both partitions (the
//     directed-pair duplication of Sec. 3.1).
//   - ModeDedup / ModeProposed: only the "lighter" partition of each pair
//     (fewer total cut edges, Sec. 5) stores the edge; the other side
//     holds stubs that preserve remote-degree classification.
//
// In ModeProposed the keeper's edges that convert at level ≥ 1 are
// additionally moved out of the state into the returned parked pools
// (keyed by convert level), to be shipped from the leaf host directly to
// the merging ancestor at the right superstep (deferred transfer).
// Parked edges are likewise stub-covered in the state.
//
// Every state copies its same-partition edges into Local, so it can be
// encoded, shipped or toured anywhere.  A plan whose leaves are toured in
// the process that built it from a resident graph builds them in place
// instead (buildInPlaceLeaves).
func BuildLeafStates(g graph.Source, a partition.Assignment, tree *MergeTree, mode Mode) ([]*PartState, []map[int32][]RemoteEdge, error) {
	n := int(a.Parts)
	states := make([]*PartState, n)
	parked, err := buildLeafStates(g, a, tree, mode, func(locals []int64) {
		for i := range states {
			states[i] = &PartState{Parent: i, Leaves: []int{i}, Local: make([]CoarseEdge, 0, locals[i])}
		}
	}, func(p int32, e graph.Edge) error {
		states[p].Local = append(states[p].Local,
			CoarseEdge{U: e.U, V: e.V, Kind: ItemEdge, Ref: e.ID})
		return nil
	}, func(p int32, remote []RemoteEdge, stubs []Stub) error {
		states[p].Remote = oneRun(remote)
		states[p].Stubs = stubs
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return states, parked, nil
}

// graphLeaf is the in-place form of a level-0 leaf's local edges: they
// are the edges of the resident graph with both endpoints in part, and
// verts lists the leaf's vertices in the order intern would find them in
// the copied leaf, so that the partition object Phase 1 builds from the
// graph is the one it builds from the copy.
type graphLeaf struct {
	*inPlace
	part   int32
	locals int64            // same-part edges
	verts  []graph.VertexID // local-edge endpoints, remote Local endpoints, stub vertices
}

// inPlace is what every in-place leaf of one plan shares.  Parts are
// vertex-disjoint and so are their local edges: leaves toured at once on
// different engine slots read the graph, of and idx, and each writes only
// its own local edges' open marks.  A cut edge is never open, so a tour
// tells a local half from a cut one by its mark alone.  A leaf is toured
// once; the marks are not reset.
type inPlace struct {
	g    *graph.Graph
	of   []int32 // the assignment: vertex → part
	idx  []int32 // vertex → its index in its part's verts (-1: none)
	open []bool  // per EdgeID: a local edge no tour has consumed yet
}

// buildInPlaceLeaves is BuildLeafStates for leaves toured in place over
// the resident graph g: a leaf holds its remote edges and stubs as
// BuildLeafStates' does, and instead of Local its local-edge count and
// vertex order.  The scan visits edges in EdgeID order, so local-edge
// endpoints come first (U before V); remote Local endpoints, then stub
// vertices, follow once the scan is done.  That is intern's order.
func buildInPlaceLeaves(g *graph.Graph, a partition.Assignment, tree *MergeTree, mode Mode) ([]*PartState, []map[int32][]RemoteEdge, error) {
	n := int(a.Parts)
	ip := &inPlace{g: g, of: a.Of, idx: make([]int32, len(a.Of)), open: make([]bool, g.NumEdges())}
	// A part's vertices bound its verts list: carve every list from one
	// backing array.
	ends := make([]int, n+1)
	for v, p := range a.Of {
		ip.idx[v] = -1
		ends[p+1]++
	}
	for p := 1; p <= n; p++ {
		ends[p] += ends[p-1]
	}
	verts := make([]graph.VertexID, ends[n])
	states := make([]*PartState, n)
	// see appends v to its part's verts unless it is there already.
	see := func(l *graphLeaf, v graph.VertexID) {
		if ip.idx[v] < 0 {
			ip.idx[v] = int32(len(l.verts))
			l.verts = append(l.verts, v)
		}
	}
	parked, err := buildLeafStates(g, a, tree, mode, func(locals []int64) {
		for i := range states {
			states[i] = &PartState{Parent: i, Leaves: []int{i}, onGraph: &graphLeaf{
				inPlace: ip, part: int32(i), locals: locals[i], verts: verts[ends[i]:ends[i]:ends[i+1]],
			}}
		}
	}, func(p int32, e graph.Edge) error {
		l := states[p].onGraph
		see(l, e.U)
		see(l, e.V)
		ip.open[e.ID] = true
		return nil
	}, func(p int32, remote []RemoteEdge, stubs []Stub) error {
		st := states[p]
		st.Remote, st.Stubs = oneRun(remote), stubs
		for _, r := range remote {
			see(st.onGraph, r.Local)
		}
		for _, s := range stubs {
			see(st.onGraph, s.Vertex)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return states, parked, nil
}

// buildLeafStates is the shared leaf-state scan behind BuildLeafStates
// (in-memory states) and BuildSpilledLeafStates (states encoded to a
// store one partition at a time).  It makes two passes over the source:
// the first counts, the second writes into slices sized from those
// counts.  start is called between the two with every partition's
// same-partition edge count; local is then called for every
// same-partition edge in EdgeID order; finish once per partition with its
// remote edges and stubs.  It returns the parked pools.
func buildLeafStates(g graph.Source, a partition.Assignment, tree *MergeTree, mode Mode,
	start func(locals []int64),
	local func(p int32, e graph.Edge) error,
	finish func(p int32, remote []RemoteEdge, stubs []Stub) error) ([]map[int32][]RemoteEdge, error) {
	n := int(a.Parts)

	// Counting pass: same-partition edges per partition and cut edges per
	// partition pair (cut[i*n+j], i < j — O(n²) like the meta-graph).
	locals := make([]int64, n)
	cut := make([]int64, n*n)
	err := g.ForEachEdge(func(e graph.Edge) error {
		pu, pv := int(a.Of[e.U]), int(a.Of[e.V])
		switch {
		case pu == pv:
			locals[pu]++
		case pu < pv:
			cut[pu*n+pv]++
		default:
			cut[pv*n+pu]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Cut-edge loads decide the keeper side per partition pair (Sec. 5:
	// the heavier partition drops its copies).
	load := make([]int64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			load[i] += cut[i*n+j]
			load[j] += cut[i*n+j]
		}
	}
	keeperOf := func(pu, pv int32) int32 {
		if load[pu] != load[pv] {
			if load[pu] < load[pv] {
				return pu
			}
			return pv
		}
		if pu < pv {
			return pu
		}
		return pv
	}

	// Every pair's edges land in one place per mode, so the pair counts
	// size each remote list, parked pool and stub key list exactly.
	remoteCap := make([]int64, n)
	stubCap := make([]int64, n)
	parkedCap := make([]map[int32]int64, n)
	for i := range parkedCap {
		parkedCap[i] = make(map[int32]int64)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := cut[i*n+j]
			if c == 0 {
				continue
			}
			keeper, other := keeperOf(int32(i), int32(j)), int32(j)
			if keeper == other {
				other = int32(i)
			}
			switch lvl := tree.ConvertLevel(i, j); {
			case mode == ModeCurrent:
				remoteCap[i] += c
				remoteCap[j] += c
			case mode == ModeProposed && lvl >= 1:
				parkedCap[keeper][lvl] += c
				stubCap[keeper] += c
				stubCap[other] += c
			default:
				remoteCap[keeper] += c
				stubCap[other] += c
			}
		}
	}
	remotes := make([][]RemoteEdge, n)
	parked := make([]map[int32][]RemoteEdge, n)
	// stubKeys[p] holds one key per edge end p stubs, (vertex, level)
	// packed vertex-high so that an integer sort puts them in stubLess
	// order; finish sorts and coalesces them into p's stub groups.
	lvlBits := bits.Len(uint(tree.Height()))
	if bits.Len64(uint64(g.NumVertices()))+lvlBits > 64 {
		return nil, fmt.Errorf("euler: %d vertices and merge-tree height %d overflow a stub key", g.NumVertices(), tree.Height())
	}
	stubKey := func(v graph.VertexID, lvl int32) uint64 { return uint64(v)<<lvlBits | uint64(lvl) }
	stubKeys := make([][]uint64, n)
	for i := 0; i < n; i++ {
		if remoteCap[i] > 0 {
			remotes[i] = make([]RemoteEdge, 0, remoteCap[i])
		}
		if stubCap[i] > 0 {
			stubKeys[i] = make([]uint64, 0, stubCap[i])
		}
		parked[i] = make(map[int32][]RemoteEdge, len(parkedCap[i]))
		for lvl, c := range parkedCap[i] {
			parked[i][lvl] = make([]RemoteEdge, 0, c)
		}
	}
	start(locals)

	err = g.ForEachEdge(func(e graph.Edge) error {
		pu, pv := a.Of[e.U], a.Of[e.V]
		if pu == pv {
			return local(pu, e)
		}
		lvl := tree.ConvertLevel(int(pu), int(pv))
		if mode == ModeCurrent {
			remotes[pu] = append(remotes[pu],
				RemoteEdge{Local: e.U, Remote: e.V, Edge: e.ID, ConvertLevel: lvl})
			remotes[pv] = append(remotes[pv],
				RemoteEdge{Local: e.V, Remote: e.U, Edge: e.ID, ConvertLevel: lvl})
			return nil
		}
		keeper := keeperOf(pu, pv)
		kLocal, kRemote, other, oLocal := e.U, e.V, pv, e.V
		if keeper == pv {
			kLocal, kRemote, other, oLocal = e.V, e.U, pu, e.U
		}
		re := RemoteEdge{Local: kLocal, Remote: kRemote, Edge: e.ID, ConvertLevel: lvl}
		if mode == ModeProposed && lvl >= 1 {
			parked[keeper][lvl] = append(parked[keeper][lvl], re)
			stubKeys[keeper] = append(stubKeys[keeper], stubKey(kLocal, lvl))
		} else {
			remotes[keeper] = append(remotes[keeper], re)
		}
		stubKeys[other] = append(stubKeys[other], stubKey(oLocal, lvl))
		return nil
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < n; i++ {
		if err := finish(int32(i), remotes[i], coalesceStubs(stubKeys[i], lvlBits)); err != nil {
			return nil, err
		}
	}
	return parked, nil
}

// coalesceStubs sorts one part's stub keys, (vertex, level) packed with
// the level in the low lvlBits bits, and turns each run of equal keys
// into one stub counting them: the stubs come out in stubLess order.
func coalesceStubs(keys []uint64, lvlBits int) []Stub {
	if len(keys) == 0 {
		return nil
	}
	slices.Sort(keys)
	groups := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			groups++
		}
	}
	stubs := make([]Stub, 0, groups)
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			stubs[len(stubs)-1].Count++
			continue
		}
		stubs = append(stubs, Stub{Vertex: graph.VertexID(k >> lvlBits), ConvertLevel: int32(k & (1<<lvlBits - 1)), Count: 1})
	}
	return stubs
}

// stubLess orders stubs by (Vertex, ConvertLevel), the order every stub
// list is kept in from the leaf build through every merge.
func stubLess(a, b Stub) bool {
	if a.Vertex != b.Vertex {
		return a.Vertex < b.Vertex
	}
	return a.ConvertLevel < b.ConvertLevel
}

// mergeScratch is one engine slot's Phase 2 working memory, reused across
// merges like phase1Scratch.  local backs the merged state's Local set
// until the tour that follows in the same Compute call replaces it with
// the state's own OB pairs (see scratch.go).
type mergeScratch struct {
	local []CoarseEdge
	stubs []Stub // spare stub list, swapped with the state's at each merge
	// convA and convB are the sorted IDs of the edges converting at this
	// level, as stored by the parent and by the child plus deliveries.
	convA, convB []graph.EdgeID
	convTmp      []graph.EdgeID // the other half of the run merge that sorts them
	seen         []bool         // per conv entry; only when one side holds an edge twice
}

// merge folds a child partition state into its parent, in place, at the
// given level (Phase 2): remote edges whose ConvertLevel equals level
// become local coarse edges, stubs at that level are retired, and
// everything else is carried.  delivered carries parked remote edges
// shipped from leaf hosts in ModeProposed, one run per batch.  Both input
// states must already have had Phase 1 applied (their Local sets are
// OB-pair edges only).
//
// Every input is validated before parent is touched.  Then Local is
// written into the scratch buffer and Stubs into the spare list, each
// sized beforehand, and the remote edges move rather than being copied:
// every run of parent, child and delivered, in that order, is compacted
// where it lies, and the non-empty runs become parent's list.  Converted
// edges keep the order of their first stored copy in parent, child,
// delivered order.  The merge allocates no remote-edge storage; it
// consumes child, whose runs now belong to parent (child.Remote is
// cleared), and the runs of delivered.  parent.Local aliases the scratch
// until the scratch's next merge, so the caller tours parent before the
// scratch merges again.
//
// sink is the time spent on the parent's own state (Fig. 6's copy-sink
// term); the caller books the rest of the call as create-obj.
func (ms *mergeScratch) merge(parent, child *PartState, level int, mode Mode, delivered [][]RemoteEdge) (sink time.Duration, err error) {
	lvl := int32(level)
	want := 1
	if mode == ModeCurrent {
		want = 2 // the directed-pair duplication stores both sides
	}

	t := time.Now()
	convP, err := countRemote(parent.Remote, lvl)
	if err != nil {
		return 0, err
	}
	ms.convA, ms.convTmp = sortedConverting(ms.convA, ms.convTmp, convP, lvl, parent.Remote)
	sink = time.Since(t)

	convC, err := countRemote(child.Remote, lvl)
	if err != nil {
		return 0, err
	}
	convD, err := countRemote(delivered, lvl)
	if err != nil {
		return 0, err
	}
	ms.convB, ms.convTmp = sortedConverting(ms.convB, ms.convTmp, convC+convD, lvl, child.Remote, delivered)
	twice, ok := copiesMatch(ms.convA, ms.convB, want)
	if !ok {
		return 0, ms.copyCountError(level, mode, want, parent.Remote, child.Remote, delivered)
	}
	stubsP, err := countStubs(parent.Stubs, lvl)
	if err != nil {
		return 0, err
	}
	stubsC, err := countStubs(child.Stubs, lvl)
	if err != nil {
		return 0, err
	}
	if twice {
		ms.seen = growBool(ms.seen, len(ms.convA)+len(ms.convB))
	}

	// The parent's own state: its Local moves into the merge buffer, its
	// runs are compacted where they lie.
	t = time.Now()
	nConv := (convP + convC + convD) / want
	ms.local = grow(ms.local, len(parent.Local)+len(child.Local)+nConv)
	copy(ms.local, parent.Local)
	converted := ms.local[len(parent.Local)+len(child.Local):][:0]
	runs := parent.Remote[:0]
	for _, run := range parent.Remote { // reads stay ahead of the compacting writes
		kept := run[:0]
		for _, r := range run {
			if r.ConvertLevel != lvl {
				kept = append(kept, r)
			} else if !twice || ms.firstCopy(r.Edge, false) {
				converted = append(converted, CoarseEdge{U: r.Local, V: r.Remote, Kind: ItemEdge, Ref: r.Edge})
			}
		}
		if len(kept) > 0 {
			runs = append(runs, kept)
		}
	}
	sink += time.Since(t)

	copy(ms.local[len(parent.Local):], child.Local)
	runs = slices.Grow(runs, len(child.Remote)+len(delivered))
	for _, side := range [2][][]RemoteEdge{child.Remote, delivered} {
		for _, run := range side {
			kept := run[:0]
			for _, r := range run {
				if r.ConvertLevel != lvl {
					kept = append(kept, r)
				} else if want == 1 || (twice && ms.firstCopy(r.Edge, true)) {
					converted = append(converted, CoarseEdge{U: r.Local, V: r.Remote, Kind: ItemEdge, Ref: r.Edge})
				}
			}
			if len(kept) > 0 {
				runs = append(runs, kept)
			}
		}
	}
	if len(converted) != nConv {
		return 0, fmt.Errorf("euler: merge at level %d converted %d edges, counted %d (internal inconsistency)",
			level, len(converted), nConv)
	}
	parent.Local, parent.Remote, child.Remote = ms.local, runs, nil

	// Retire stubs for this level; coalesce the rest.
	stubs := ms.stubs[:0]
	if cap(stubs) < stubsP+stubsC {
		stubs = make([]Stub, 0, stubsP+stubsC)
	}
	a, b := parent.Stubs, child.Stubs
	for {
		for len(a) > 0 && a[0].ConvertLevel == lvl {
			a = a[1:]
		}
		for len(b) > 0 && b[0].ConvertLevel == lvl {
			b = b[1:]
		}
		if len(a) == 0 && len(b) == 0 {
			break
		}
		switch {
		case len(b) == 0 || (len(a) > 0 && stubLess(a[0], b[0])):
			stubs, a = append(stubs, a[0]), a[1:]
		case len(a) == 0 || stubLess(b[0], a[0]):
			stubs, b = append(stubs, b[0]), b[1:]
		default:
			a[0].Count += b[0].Count
			stubs, a, b = append(stubs, a[0]), a[1:], b[1:]
		}
	}
	ms.stubs, parent.Stubs = parent.Stubs[:0], stubs

	parent.Leaves = append(parent.Leaves, child.Leaves...)
	sort.Ints(parent.Leaves)
	return sink, nil
}

// countRemote returns how many edges of runs convert at lvl; an edge that
// should have converted earlier is an error.
func countRemote(runs [][]RemoteEdge, lvl int32) (conv int, err error) {
	for _, run := range runs {
		for _, r := range run {
			switch {
			case r.ConvertLevel == lvl:
				conv++
			case r.ConvertLevel < lvl:
				return 0, fmt.Errorf("euler: merge at level %d found stale remote edge %d (convert level %d)",
					lvl, r.Edge, r.ConvertLevel)
			}
		}
	}
	return conv, nil
}

// sortedConverting returns, sorted, the IDs of the n edges of sides' runs
// that convert at lvl.  buf and tmp are scratch slices, reallocated here
// when too small; the result lives in one, spare is the other.
func sortedConverting(buf, tmp []graph.EdgeID, n int, lvl int32, sides ...[][]RemoteEdge) (ids, spare []graph.EdgeID) {
	buf = grow(buf, n)[:0]
	for _, runs := range sides {
		for _, run := range runs {
			for _, r := range run {
				if r.ConvertLevel == lvl {
					buf = append(buf, r.Edge)
				}
			}
		}
	}
	if runEnd(buf, 0) == len(buf) {
		return buf, tmp // one run: sorted as collected, as every leaf-level list is
	}
	return sortRuns(buf, grow(tmp, n))
}

// sortRuns sorts src by merging neighbouring ascending runs, round by
// round, between src and the equally long dst, and returns the slice the
// result ended in and the other one.  A leaf's remote list is in EdgeID
// order and a merge concatenates what it carries, so the IDs collected at
// level l form about 2^l runs: a few linear passes, where a general sort
// would spend most of the merge's time.
func sortRuns(src, dst []graph.EdgeID) (sorted, spare []graph.EdgeID) {
	for runEnd(src, 0) < len(src) {
		for i := 0; i < len(src); {
			j := runEnd(src, i)
			k := runEnd(src, j)
			a, b, n := src[i:j], src[j:k], i
			for ; len(a) > 0 && len(b) > 0; n++ {
				if a[0] <= b[0] {
					dst[n], a = a[0], a[1:]
				} else {
					dst[n], b = b[0], b[1:]
				}
			}
			n += copy(dst[n:], a)
			copy(dst[n:], b)
			i = k
		}
		src, dst = dst, src
	}
	return src, dst
}

// runEnd returns the end of the ascending run of s that starts at i
// (len(s) when i is already there).
func runEnd(s []graph.EdgeID, i int) int {
	for i++; i < len(s) && s[i-1] <= s[i]; i++ {
	}
	return min(i, len(s))
}

// copiesMatch reports whether every edge ID of the sorted lists a and b
// occurs want times in the two together, and whether some edge occurs
// twice in one list (legal only when want is 2).
func copiesMatch(a, b []graph.EdgeID, want int) (twice, ok bool) {
	for len(a) > 0 || len(b) > 0 {
		var id graph.EdgeID
		if len(b) == 0 || (len(a) > 0 && a[0] <= b[0]) {
			id = a[0]
		} else {
			id = b[0]
		}
		na, nb := runLen(a, id), runLen(b, id)
		if na+nb != want {
			return false, false
		}
		twice = twice || na > 1 || nb > 1
		a, b = a[na:], b[nb:]
	}
	return twice, true
}

// runLen is the number of leading elements of s equal to id.
func runLen(s []graph.EdgeID, id graph.EdgeID) int {
	n := 0
	for n < len(s) && s[n] == id {
		n++
	}
	return n
}

// firstCopy reports whether the copy of edge id being visited — on the
// child side when childSide is set — is the first one in parent, child,
// delivered order.  It is needed only when a side stores an edge twice;
// otherwise a parent copy is always first and a child copy is first
// exactly when there is no parent copy (want == 1).
func (ms *mergeScratch) firstCopy(id graph.EdgeID, childSide bool) bool {
	i, inParent := slices.BinarySearch(ms.convA, id)
	if childSide {
		if inParent {
			return false
		}
		j, _ := slices.BinarySearch(ms.convB, id)
		i = len(ms.convA) + j
	}
	if ms.seen[i] {
		return false
	}
	ms.seen[i] = true
	return true
}

// copyCountError names the first converting edge, in parent, child,
// delivered order, whose stored copies do not number want.
func (ms *mergeScratch) copyCountError(level int, mode Mode, want int, sides ...[][]RemoteEdge) error {
	for _, runs := range sides {
		for _, run := range runs {
			for _, r := range run {
				if int(r.ConvertLevel) != level {
					continue
				}
				i, _ := slices.BinarySearch(ms.convA, r.Edge)
				j, _ := slices.BinarySearch(ms.convB, r.Edge)
				if c := runLen(ms.convA[i:], r.Edge) + runLen(ms.convB[j:], r.Edge); c != want {
					return fmt.Errorf("euler: merge at level %d: edge %d has %d stored copies, want %d (mode %v)",
						level, r.Edge, c, want, mode)
				}
			}
		}
	}
	return fmt.Errorf("euler: merge at level %d: stored copy counts do not match mode %v (internal inconsistency)", level, mode)
}

// countStubs checks that stubs is strictly ordered by (Vertex,
// ConvertLevel) with nothing left over from an earlier level, and returns
// how many entries are carried past lvl.
func countStubs(stubs []Stub, lvl int32) (keep int, err error) {
	for i, st := range stubs {
		if st.ConvertLevel < lvl {
			return 0, fmt.Errorf("euler: merge at level %d found stale stub at vertex %d (convert level %d)",
				lvl, st.Vertex, st.ConvertLevel)
		}
		if i > 0 && !stubLess(stubs[i-1], st) {
			return 0, fmt.Errorf("euler: merge at level %d found stub (vertex %d, convert level %d) out of order",
				lvl, st.Vertex, st.ConvertLevel)
		}
		if st.ConvertLevel > lvl {
			keep++
		}
	}
	return keep, nil
}
