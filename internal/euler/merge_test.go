package euler

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// figure1Setup builds the paper's Fig. 1 leaf states under a mode.
func figure1Setup(t *testing.T, mode Mode) ([]*PartState, *MergeTree, []map[int32][]RemoteEdge) {
	t.Helper()
	g, part := gen.PaperFigure1()
	a := partition.Assignment{Parts: 4, Of: part}
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildMergeTree(meta, GreedyMaxWeight)
	states, parked, err := BuildLeafStates(g, a, tree, mode)
	if err != nil {
		t.Fatal(err)
	}
	return states, tree, parked
}

func TestBuildLeafStatesCurrent(t *testing.T) {
	states, _, parked := figure1Setup(t, ModeCurrent)
	// Fig. 1a has 5 cut edges; each is stored by both sides: 10 copies.
	var copies int
	for _, s := range states {
		copies += s.remoteLen()
		if len(s.Stubs) != 0 {
			t.Errorf("partition %d has stubs in current mode", s.Parent)
		}
		if err := s.CheckParity(); err != nil {
			t.Errorf("partition %d: %v", s.Parent, err)
		}
	}
	if copies != 10 {
		t.Fatalf("remote copies = %d, want 10", copies)
	}
	// Local edges: 16 total - 5 cut = 11, spread over partitions.
	var locals int
	for _, s := range states {
		locals += len(s.Local)
	}
	if locals != 11 {
		t.Fatalf("local edges = %d, want 11", locals)
	}
	for _, p := range parked {
		if len(p) != 0 {
			t.Error("current mode must not park edges")
		}
	}
}

func TestBuildLeafStatesDedup(t *testing.T) {
	states, _, parked := figure1Setup(t, ModeDedup)
	var copies, stubbed int64
	for _, s := range states {
		copies += int64(s.remoteLen())
		for _, st := range s.Stubs {
			stubbed += st.Count
		}
		if err := s.CheckParity(); err != nil {
			t.Errorf("partition %d: %v", s.Parent, err)
		}
	}
	// Exactly one stored copy and one stub side per cut edge.
	if copies != 5 || stubbed != 5 {
		t.Fatalf("copies=%d stubbed=%d, want 5/5", copies, stubbed)
	}
	for _, p := range parked {
		if len(p) != 0 {
			t.Error("dedup mode must not park edges")
		}
	}
}

func TestBuildLeafStatesProposedParks(t *testing.T) {
	states, tree, parked := figure1Setup(t, ModeProposed)
	var inState, parkedCount int
	for i, s := range states {
		inState += s.remoteLen()
		for lvl, batch := range parked[i] {
			parkedCount += len(batch)
			if lvl < 1 {
				t.Errorf("parked batch at level %d, want >= 1", lvl)
			}
			for _, r := range batch {
				if r.ConvertLevel != lvl {
					t.Errorf("parked edge %+v under level %d", r, lvl)
				}
			}
		}
		if err := s.CheckParity(); err != nil {
			t.Errorf("partition %d: %v", s.Parent, err)
		}
	}
	if inState+parkedCount != 5 {
		t.Fatalf("stored %d + parked %d copies, want 5 total", inState, parkedCount)
	}
	// Fig. 2: level 1 merges P2 and P4; the single P1–P4 edge (e1,14) and
	// P2–P4 edge (e3,13) convert at level 1 and must be parked.
	if tree.ConvertLevel(0, 3) != 1 {
		t.Fatalf("ConvertLevel(P1,P4) = %d, want 1", tree.ConvertLevel(0, 3))
	}
	if parkedCount == 0 {
		t.Fatal("no edges parked despite level-1 conversions")
	}
}

// mergeStates folds child into parent in place with a fresh scratch.
func mergeStates(parent, child *PartState, level int, mode Mode, delivered [][]RemoteEdge) error {
	_, err := new(mergeScratch).merge(parent, child, level, mode, delivered)
	return err
}

func TestMergeStatesFigure1Level0(t *testing.T) {
	// Merge P3 into P4 at level 0 (current mode) after Phase 1 — here we
	// merge the raw leaf states (their locals are original edges, which is
	// fine for the merge: it only touches Remote/Stubs).
	states, _, _ := figure1Setup(t, ModeCurrent)
	merged := states[3]
	wantLocals := len(states[3].Local) + len(states[2].Local) + 2
	if err := mergeStates(merged, states[2], 0, ModeCurrent, nil); err != nil {
		t.Fatal(err)
	}
	// P3–P4 cut edges e6,11 and e9,10 become local.
	if len(merged.Local) != wantLocals {
		t.Fatalf("merged locals = %d, want %d", len(merged.Local), wantLocals)
	}
	// Remaining remote edges: P4's e1,14 and e3,13 sides (2 copies).
	if merged.remoteLen() != 2 {
		t.Fatalf("merged remotes = %d, want 2", merged.remoteLen())
	}
	if err := merged.CheckParity(); err != nil {
		t.Fatal(err)
	}
	if got := merged.Leaves; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("leaves = %v, want [2 3]", got)
	}
}

// wantMergeError runs both the in-place merge and the old copying merge on
// the same inputs and requires the same error from both.
func wantMergeError(t *testing.T, parent, child *PartState, level int, mode Mode, delivered [][]RemoteEdge, text string) {
	t.Helper()
	_, oldErr := oldMergeStates(parent, child, level, mode, delivered)
	err := mergeStates(parent, child, level, mode, delivered)
	if err == nil || oldErr == nil || err.Error() != oldErr.Error() {
		t.Fatalf("in-place merge: %v\nold merge:      %v", err, oldErr)
	}
	if !strings.Contains(err.Error(), text) {
		t.Fatalf("error %q does not mention %q", err, text)
	}
}

func TestMergeStatesRejectsStale(t *testing.T) {
	parent := &PartState{Parent: 1, Leaves: []int{1},
		Remote: [][]RemoteEdge{{{Local: 1, Remote: 2, Edge: 0, ConvertLevel: 0}}}}
	child := &PartState{Parent: 0, Leaves: []int{0},
		Remote: [][]RemoteEdge{{{Local: 2, Remote: 1, Edge: 0, ConvertLevel: 0}}}}
	wantMergeError(t, parent, child, 1, ModeCurrent, nil, "stale remote edge 0")

	stub := &PartState{Parent: 1, Leaves: []int{1}, Stubs: []Stub{{Vertex: 4, ConvertLevel: 0, Count: 1}}}
	wantMergeError(t, stub, &PartState{Leaves: []int{0}}, 1, ModeDedup, nil, "stale stub at vertex 4")
}

func TestMergeStatesRejectsMissingCopy(t *testing.T) {
	// Current mode expects both copies of a converting edge.
	parent := &PartState{Parent: 1, Leaves: []int{1},
		Remote: [][]RemoteEdge{{{Local: 1, Remote: 2, Edge: 0, ConvertLevel: 0}}}}
	child := &PartState{Parent: 0, Leaves: []int{0}}
	wantMergeError(t, parent, child, 0, ModeCurrent, nil, "edge 0 has 1 stored copies, want 2")
}

func TestMergeStatesRejectsExtraCopies(t *testing.T) {
	re := func(edge int64, lvl int32) RemoteEdge {
		return RemoteEdge{Local: 1, Remote: 2, Edge: edge, ConvertLevel: lvl}
	}
	// A duplicate copy in a de-duplicating mode, on either side or split.
	for _, mode := range []Mode{ModeDedup, ModeProposed} {
		parent := &PartState{Leaves: []int{1}, Remote: [][]RemoteEdge{{re(5, 0), re(7, 0)}}}
		child := &PartState{Leaves: []int{0}, Remote: [][]RemoteEdge{{re(9, 1)}}}
		wantMergeError(t, parent, child, 0, mode, [][]RemoteEdge{{re(7, 0)}}, "edge 7 has 2 stored copies, want 1")
	}
	// Three copies in the duplicating mode: the first bad edge in parent,
	// child, delivered order is reported, after a well-formed one.
	parent := &PartState{Leaves: []int{1}, Remote: [][]RemoteEdge{{re(3, 0), re(8, 0)}}}
	child := &PartState{Leaves: []int{0}, Remote: [][]RemoteEdge{{re(8, 0)}, {re(3, 0), re(8, 0)}}}
	wantMergeError(t, parent, child, 0, ModeCurrent, nil, "edge 8 has 3 stored copies, want 2")
}

func TestMergeStatesRejectsUnsortedStubs(t *testing.T) {
	// Stub lists are kept ordered by (vertex, level) from the leaf build
	// on; the two-pointer coalesce depends on it and says so.
	unsorted := []Stub{{Vertex: 9, ConvertLevel: 2, Count: 1}, {Vertex: 4, ConvertLevel: 1, Count: 1}}
	repeated := []Stub{{Vertex: 4, ConvertLevel: 1, Count: 1}, {Vertex: 4, ConvertLevel: 1, Count: 2}}
	for _, stubs := range [][]Stub{unsorted, repeated} {
		for _, asParent := range []bool{true, false} {
			parent, child := &PartState{Leaves: []int{1}}, &PartState{Leaves: []int{0}}
			if asParent {
				parent.Stubs = stubs
			} else {
				child.Stubs = stubs
			}
			err := mergeStates(parent, child, 0, ModeDedup, nil)
			if err == nil || !strings.Contains(err.Error(), "out of order") {
				t.Fatalf("stubs %+v (parent=%v): err = %v, want an out-of-order error", stubs, asParent, err)
			}
		}
	}
}

func TestMergeStatesDelivered(t *testing.T) {
	// Proposed mode: the converting edge arrives via a parked delivery; a
	// delivered edge of a later level is carried, after the child's.  The
	// two delivered batches are two runs; the one that converts entirely
	// leaves no run behind.
	parent := &PartState{Parent: 1, Leaves: []int{1},
		Remote: [][]RemoteEdge{{{Local: 1, Remote: 8, Edge: 2, ConvertLevel: 1}}},
		Stubs:  []Stub{{Vertex: 1, ConvertLevel: 0, Count: 1}}}
	child := &PartState{Parent: 0, Leaves: []int{0},
		Remote: [][]RemoteEdge{{{Local: 2, Remote: 9, Edge: 3, ConvertLevel: 2}}},
		Stubs:  []Stub{{Vertex: 2, ConvertLevel: 0, Count: 1}}}
	delivered := [][]RemoteEdge{
		{{Local: 5, Remote: 6, Edge: 11, ConvertLevel: 1}},
		{{Local: 2, Remote: 1, Edge: 7, ConvertLevel: 0}},
		{{Local: 5, Remote: 7, Edge: 4, ConvertLevel: 3}},
	}
	want, err := oldMergeStates(parent, child, 0, ModeProposed, delivered)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergeStates(parent, child, 0, ModeProposed, delivered); err != nil {
		t.Fatal(err)
	}
	if len(parent.Local) != 1 || parent.Local[0].Ref != 7 {
		t.Fatalf("merged locals = %+v", parent.Local)
	}
	if len(parent.Stubs) != 0 {
		t.Fatalf("stubs not retired: %+v", parent.Stubs)
	}
	var carried []int64
	for _, r := range slices.Concat(parent.Remote...) {
		carried = append(carried, r.Edge)
	}
	if !slices.Equal(carried, []int64{2, 3, 11, 4}) {
		t.Fatalf("carried remote edges = %v, want [2 3 11 4]", carried)
	}
	if len(parent.Remote) != 4 || child.Remote != nil {
		t.Fatalf("parent holds %d runs, want 4; child keeps %d", len(parent.Remote), len(child.Remote))
	}
	if !sameState(parent, want) {
		t.Fatalf("in-place merge %+v\nold merge %+v", parent, want)
	}
}

func TestMergeStatesEmptyChild(t *testing.T) {
	// A child with nothing in it (its edges all converted earlier, or all
	// parked) still hands over its leaves.
	parent := &PartState{Parent: 3, Leaves: []int{2, 3},
		Local:  []CoarseEdge{{U: 1, V: 2, Kind: ItemPath, Ref: 77}},
		Remote: [][]RemoteEdge{{{Local: 1, Remote: 5, Edge: 4, ConvertLevel: 2}}},
		Stubs:  []Stub{{Vertex: 2, ConvertLevel: 1, Count: 3}}}
	child := &PartState{Parent: 1, Leaves: []int{0, 1}}
	for _, mode := range allModes {
		p := cloneState(parent)
		want, err := oldMergeStates(p, child, 1, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := mergeStates(p, child, 1, mode, nil); err != nil {
			t.Fatal(err)
		}
		if !sameState(p, want) || !slices.Equal(p.Leaves, []int{0, 1, 2, 3}) || len(p.Stubs) != 0 {
			t.Fatalf("mode %v: merged %+v, want %+v", mode, p, want)
		}
	}
}

// oldMergeStates is the copying, map-based merge this package used before
// the in-place fold, kept as the oracle the new code is compared against.
// It reads every remote list as its runs concatenated, leaves its inputs
// as they are, and returns the carried edges as one run.
func oldMergeStates(parent, child *PartState, level int, mode Mode, delivered [][]RemoteEdge) (*PartState, error) {
	merged := &PartState{Parent: parent.Parent}
	merged.Leaves = append(append([]int{}, parent.Leaves...), child.Leaves...)
	sort.Ints(merged.Leaves)
	merged.Local = append(append([]CoarseEdge{}, parent.Local...), child.Local...)

	all := slices.Concat(slices.Concat(parent.Remote...), slices.Concat(child.Remote...), slices.Concat(delivered...))
	var carried []RemoteEdge

	seen := make(map[graph.EdgeID]int8)
	for _, r := range all {
		if int(r.ConvertLevel) == level {
			seen[r.Edge]++
			continue
		}
		if int(r.ConvertLevel) < level {
			return nil, fmt.Errorf("euler: merge at level %d found stale remote edge %d (convert level %d)",
				level, r.Edge, r.ConvertLevel)
		}
		carried = append(carried, r)
	}
	merged.Remote = oneRun(carried)
	wantCopies := int8(1)
	if mode == ModeCurrent {
		wantCopies = 2 // the directed-pair duplication stores both sides
	}
	for _, r := range all {
		if int(r.ConvertLevel) != level {
			continue
		}
		c := seen[r.Edge]
		if c == -1 {
			continue // duplicate copy of an already-converted edge
		}
		if c != wantCopies {
			return nil, fmt.Errorf("euler: merge at level %d: edge %d has %d stored copies, want %d (mode %v)",
				level, r.Edge, c, wantCopies, mode)
		}
		seen[r.Edge] = -1 // convert each undirected edge exactly once
		merged.Local = append(merged.Local,
			CoarseEdge{U: r.Local, V: r.Remote, Kind: ItemEdge, Ref: r.Edge})
	}

	// Retire stubs for this level; coalesce the rest.
	stubs := make(map[[2]int64]int64)
	for _, src := range [][]Stub{parent.Stubs, child.Stubs} {
		for _, st := range src {
			if int(st.ConvertLevel) == level {
				continue
			}
			if int(st.ConvertLevel) < level {
				return nil, fmt.Errorf("euler: merge at level %d found stale stub at vertex %d (convert level %d)",
					level, st.Vertex, st.ConvertLevel)
			}
			stubs[[2]int64{st.Vertex, int64(st.ConvertLevel)}] += st.Count
		}
	}
	merged.Stubs = stubsFromMap(stubs)
	return merged, nil
}

// stubsFromMap lists coalesced stub counts in stubLess order, the
// reference oldMergeStates' stub retirement builds with.
func stubsFromMap(m map[[2]int64]int64) []Stub {
	if len(m) == 0 {
		return nil
	}
	stubs := make([]Stub, 0, len(m))
	for k, c := range m {
		stubs = append(stubs, Stub{Vertex: k[0], ConvertLevel: int32(k[1]), Count: c})
	}
	slices.SortFunc(stubs, func(a, b Stub) int {
		if stubLess(a, b) {
			return -1
		}
		if stubLess(b, a) {
			return 1
		}
		return 0
	})
	return stubs
}

// cloneState deep-copies a state, run by run, so one input can go through
// both merges.
func cloneState(s *PartState) *PartState {
	c := &PartState{Parent: s.Parent, Leaves: slices.Clone(s.Leaves),
		Local: slices.Clone(s.Local), Stubs: slices.Clone(s.Stubs)}
	for _, run := range s.Remote {
		c.Remote = append(c.Remote, slices.Clone(run))
	}
	return c
}

// sameState compares two states field by field, each remote list as its
// runs concatenated; nil and empty slices are the same state.
func sameState(a, b *PartState) bool {
	return a.Parent == b.Parent && slices.Equal(a.Leaves, b.Leaves) && slices.Equal(a.Local, b.Local) &&
		slices.Equal(slices.Concat(a.Remote...), slices.Concat(b.Remote...)) && slices.Equal(a.Stubs, b.Stubs)
}

// randomMergeCase draws one merge input.  Most draws are well formed for
// their mode; about one in four is then damaged (a copy dropped, added or
// moved to the wrong side, a level made stale) so the error paths and the
// stored-twice-on-one-side path are compared as well.  Each side's remote
// list is then cut into runs at random points, some of them empty.
func randomMergeCase(rng *rand.Rand) (parent, child *PartState, level int, mode Mode, delivered [][]RemoteEdge) {
	mode = allModes[rng.Intn(len(allModes))]
	level = rng.Intn(3)
	parent = &PartState{Parent: 7, Leaves: []int{5, 7}}
	child = &PartState{Parent: 3, Leaves: []int{1, 3}}
	coarse := func(n int) []CoarseEdge {
		var out []CoarseEdge
		for i := 0; i < n; i++ {
			out = append(out, CoarseEdge{U: rng.Int63n(50), V: rng.Int63n(50), Kind: ItemPath, Ref: rng.Int63()})
		}
		return out
	}
	parent.Local, child.Local = coarse(rng.Intn(6)), coarse(rng.Intn(6))

	var parentRemote, childRemote, deliveredRemote []RemoteEdge
	sides := []*[]RemoteEdge{&parentRemote, &childRemote}
	if mode == ModeProposed {
		sides = append(sides, &deliveredRemote)
	}
	for e, n := int64(0), rng.Intn(40); e < int64(n); e++ {
		r := RemoteEdge{Local: rng.Int63n(50), Remote: 50 + rng.Int63n(50), Edge: e, ConvertLevel: int32(level + rng.Intn(3))}
		at := rng.Intn(len(sides))
		*sides[at] = append(*sides[at], r)
		if mode == ModeCurrent && int(r.ConvertLevel) == level {
			// The mirrored copy sits on the other side.
			*sides[1-at] = append(*sides[1-at], RemoteEdge{Local: r.Remote, Remote: r.Local, Edge: e, ConvertLevel: r.ConvertLevel})
		}
	}
	for _, side := range sides {
		rng.Shuffle(len(*side), func(i, j int) { (*side)[i], (*side)[j] = (*side)[j], (*side)[i] })
	}
	stubs := func() []Stub {
		m := make(map[[2]int64]int64)
		for i, n := 0, rng.Intn(12); i < n; i++ {
			m[[2]int64{rng.Int63n(20), int64(level + rng.Intn(3))}] += 1 + rng.Int63n(3)
		}
		return stubsFromMap(m)
	}
	parent.Stubs, child.Stubs = stubs(), stubs()

	if rng.Intn(4) == 0 {
		side := sides[rng.Intn(len(sides))]
		switch damage := rng.Intn(5); {
		case len(*side) == 0:
		case damage == 0: // drop a copy
			*side = (*side)[1:]
		case damage == 1: // a further copy on the same side
			*side = append(*side, (*side)[rng.Intn(len(*side))])
		case damage == 2: // move a copy to the other side
			other := sides[(rng.Intn(len(sides)-1)+1+slices.Index(sides, side))%len(sides)]
			*other = append(*other, (*side)[0])
			*side = (*side)[1:]
		case damage == 3 && level > 0:
			(*side)[rng.Intn(len(*side))].ConvertLevel = int32(level - 1)
		case damage == 4 && level > 0 && len(child.Stubs) > 0:
			child.Stubs[len(child.Stubs)-1].ConvertLevel = int32(level - 1)
		}
	}
	parent.Remote, child.Remote = randomRuns(rng, parentRemote), randomRuns(rng, childRemote)
	return parent, child, level, mode, randomRuns(rng, deliveredRemote)
}

// randomRuns cuts edges into runs of random length, empty ones included.
func randomRuns(rng *rand.Rand, edges []RemoteEdge) [][]RemoteEdge {
	var runs [][]RemoteEdge
	for len(edges) > 0 || rng.Intn(4) == 0 {
		n := rng.Intn(len(edges) + 1)
		runs, edges = append(runs, edges[:n:n]), edges[n:]
	}
	return runs
}

// TestMergeStatesMatchesOldMerge is the old-versus-new comparison: on
// 1000 seeded random inputs the in-place fold returns the same error text
// and leaves both inputs as they were, or leaves the parent's sequence
// equal to what the copying merge returned and consumes the child, reusing
// one scratch throughout as a worker does.
func TestMergeStatesMatchesOldMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ms := new(mergeScratch)
	var failed, twice int
	for i := 0; i < 1000; i++ {
		parent, child, level, mode, delivered := randomMergeCase(rng)
		parentBefore, childBefore := cloneState(parent), cloneState(child)
		want, wantErr := oldMergeStates(parent, child, level, mode, delivered)
		_, err := ms.merge(parent, child, level, mode, delivered)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("case %d (level %d, %v): in-place merge: %v\nold merge: %v", i, level, mode, err, wantErr)
		}
		if err != nil {
			if !sameState(child, childBefore) || !sameState(parent, parentBefore) {
				t.Fatalf("case %d: a refused merge changed its inputs", i)
			}
			failed++
			continue
		}
		if child.Remote != nil {
			t.Fatalf("case %d: the child keeps %d runs after the merge", i, len(child.Remote))
		}
		if !sameState(parent, want) {
			t.Fatalf("case %d (level %d, %v):\nin-place %+v\nold      %+v", i, level, mode, parent, want)
		}
		if len(ms.seen) > 0 {
			twice++
			ms.seen = ms.seen[:0]
		}
	}
	// The comparison must have reached the error paths and the path for an
	// edge stored twice on one side, not only well-formed merges.
	if failed < 50 || failed > 500 || twice == 0 {
		t.Fatalf("%d of 1000 cases failed in both merges, %d took the stored-twice path", failed, twice)
	}
}

// levelOnePair builds a level-1 merge input in ModeCurrent: parent and
// child each hold two runs, as a level-0 merge leaves them, carrying
// carried remote edges past level 1 and both copies of 512 edges that
// convert at it.
func levelOnePair(carried int) (parent, child *PartState) {
	const converting = 512
	side := func(leaves []int, base int64, first bool) *PartState {
		st := &PartState{Parent: leaves[1], Leaves: leaves}
		var runs [2][]RemoteEdge
		for e := int64(0); e < converting; e++ {
			u, v := 2*e, 2*e+1
			if !first {
				u, v = v, u
			}
			runs[e%2] = append(runs[e%2], RemoteEdge{Local: u, Remote: v, Edge: e, ConvertLevel: 1})
		}
		for i := 0; i < carried; i++ {
			e := base + int64(i)
			runs[i%2] = append(runs[i%2], RemoteEdge{Local: e % 4096, Remote: 1 << 20, Edge: e, ConvertLevel: 2})
		}
		st.Remote = [][]RemoteEdge{runs[0], runs[1]}
		return st
	}
	return side([]int{2, 3}, 1<<20, true), side([]int{0, 1}, 1<<21, false)
}

// TestMergeMovesRemoteEdges: a warm level-1 merge allocates the same few
// bytes whether it carries 10 k or 40 k remote edges, because it moves
// the child's runs into the parent instead of copying the carried edges
// into a list of their own.
func TestMergeMovesRemoteEdges(t *testing.T) {
	ms := new(mergeScratch)
	var bytes [2]uint64
	for i, carried := range []int{10_000, 40_000} {
		warmP, warmC := levelOnePair(carried) // the scratch is sized by this merge
		if _, err := ms.merge(warmP, warmC, 1, ModeCurrent, nil); err != nil {
			t.Fatal(err)
		}
		parent, child := levelOnePair(carried)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ms.merge(parent, child, 1, ModeCurrent, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := parent.remoteLen(); n != 2*carried || len(parent.Local) != 512 {
			t.Fatalf("merged state carries %d remote edges and %d local, want %d and 512", n, len(parent.Local), 2*carried)
		}
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	if bytes[1] > bytes[0] || bytes[0] > 1024 {
		t.Fatalf("warm merges carrying 20 k and 80 k remote edges allocated %d and %d bytes; want at most 1 KiB, not growing with the edges",
			bytes[0], bytes[1])
	}
}

func TestStateLongsAccounting(t *testing.T) {
	s := &PartState{
		Parent: 0,
		Leaves: []int{0},
		Local:  []CoarseEdge{{U: 1, V: 2, Kind: ItemEdge, Ref: 0}},
		Remote: [][]RemoteEdge{{{Local: 1, Remote: 5, Edge: 1, ConvertLevel: 0}}},
		Stubs:  []Stub{{Vertex: 2, ConvertLevel: 1, Count: 1}},
	}
	// Vertices {1,2}: 4 longs; 1 local edge: 3; 1 remote: 2; 1 stub: 3.
	if got := s.Longs(); got != 12 {
		t.Fatalf("Longs = %d, want 12", got)
	}
}
