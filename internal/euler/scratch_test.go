package euler

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// internReference is intern written with a map: the vertices in first-
// occurrence order over Local (U, V), Remote and Stubs, and every
// endpoint's index.
func internReference(st *PartState) (verts []graph.VertexID, eu, ev, ri, si []int32) {
	index := make(map[graph.VertexID]int32)
	idx := func(v graph.VertexID) int32 {
		i, ok := index[v]
		if !ok {
			i = int32(len(verts))
			index[v] = i
			verts = append(verts, v)
		}
		return i
	}
	for _, e := range st.Local {
		eu = append(eu, idx(e.U))
		ev = append(ev, idx(e.V))
	}
	for _, r := range slices.Concat(st.Remote...) {
		ri = append(ri, idx(r.Local))
	}
	for _, s := range st.Stubs {
		si = append(si, idx(s.Vertex))
	}
	return verts, eu, ev, ri, si
}

// fibColliding returns n vertex IDs whose Fibonacci hashes agree in their
// top 10 bits, so they share a home slot in every table of up to 2¹⁰
// slots and probe past each other.
func fibColliding(n int) []graph.VertexID {
	var out []graph.VertexID
	for v := graph.VertexID(1); len(out) < n; v++ {
		if (uint64(v)*0x9E3779B97F4A7C15)>>(64-internStartBits) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// randomInternState draws a state over about nv vertices: local edges
// with many parallel copies, remote edges whose Local endpoint is often
// remote-only, split into runs of random length (some empty), and stubs
// whose vertex is often stub-only.  Half of the vertex IDs come from
// colliding.
func randomInternState(rng *rand.Rand, nv int, colliding []graph.VertexID) *PartState {
	ids := make([]graph.VertexID, nv)
	for i := range ids {
		if i%2 == 0 && i/2 < len(colliding) {
			ids[i] = colliding[i/2]
		} else {
			ids[i] = graph.VertexID(rng.Int63n(1 << 40))
		}
	}
	pick := func(lo, hi int) graph.VertexID { return ids[lo+rng.Intn(hi-lo)] }
	// ids[:nv/2] carry local edges, ids[nv/2:3nv/4] only remote edges,
	// ids[3nv/4:] only stubs (some also reach back into the local half).
	localN, remoteN := max(nv/2, 1), max(3*nv/4, 1)
	st := &PartState{}
	for i := rng.Intn(4*nv + 1); i > 0; i-- {
		st.Local = append(st.Local, CoarseEdge{U: pick(0, localN), V: pick(0, localN), Ref: int64(i)})
	}
	for i := rng.Intn(nv + 1); i > 0; i-- {
		lo := localN
		if rng.Intn(3) == 0 || remoteN == localN {
			lo = 0
		}
		if len(st.Remote) == 0 || rng.Intn(8) == 0 {
			if rng.Intn(4) == 0 {
				st.Remote = append(st.Remote, []RemoteEdge{})
			}
			st.Remote = append(st.Remote, nil)
		}
		run := &st.Remote[len(st.Remote)-1]
		*run = append(*run, RemoteEdge{Local: pick(lo, remoteN), Remote: pick(0, nv), Edge: graph.EdgeID(i)})
	}
	for i := rng.Intn(nv/2 + 1); i > 0; i-- {
		lo := remoteN
		if rng.Intn(3) == 0 || remoteN == nv {
			lo = 0
		}
		st.Stubs = append(st.Stubs, Stub{Vertex: pick(lo, nv), Count: 1})
	}
	return st
}

// checkIntern interns st into sc and compares the index with the map
// reference; the table must be at least half empty and no larger than its
// starting size or four times the vertex count.
func checkIntern(t *testing.T, sc *phase1Scratch, st *PartState) {
	t.Helper()
	nv := sc.intern(st)
	verts, eu, ev, ri, si := internReference(st)
	if int(nv) != len(verts) || !slices.Equal(sc.verts, verts) {
		t.Fatalf("intern found %d vertices %v, reference %d", nv, sc.verts[:min(len(sc.verts), 8)], len(verts))
	}
	for name, pair := range map[string][2][]int32{"eu": {sc.eu, eu}, "ev": {sc.ev, ev}, "ri": {sc.ri, ri}, "si": {sc.si, si}} {
		if len(pair[0]) != len(pair[1]) || (len(pair[1]) > 0 && !slices.Equal(pair[0], pair[1])) {
			t.Fatalf("%s differs from the reference (%d vs %d entries)", name, len(pair[0]), len(pair[1]))
		}
	}
	if n := len(sc.htab); 2*int(nv) > n || n > max(1<<internStartBits, 4*int(nv)) {
		t.Fatalf("table of %d slots for %d vertices (%d endpoint occurrences)",
			n, nv, 2*len(st.Local)+st.remoteLen()+len(st.Stubs))
	}
}

// TestInternMatchesReference runs one scratch over states that grow
// through several table doublings and then shrink again.
func TestInternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	colliding := fibColliding(600)
	sc := newPhase1Scratch()
	checkIntern(t, sc, &PartState{})
	for _, nv := range []int{1, 2, 7, 300, 700, 1500, 5000, 20000, 3000, 40, 2, 1} {
		for rep := 0; rep < 3; rep++ {
			checkIntern(t, sc, randomInternState(rng, nv, colliding))
		}
	}
}

// TestInternTableTracksVertices: endpoint occurrences do not size the
// table.  Two vertices joined by 100 000 parallel edges need 2¹⁰ slots at
// most, not a table sized to 200 000 occurrences.
func TestInternTableTracksVertices(t *testing.T) {
	st := &PartState{Local: make([]CoarseEdge, 100_000)}
	for i := range st.Local {
		st.Local[i] = CoarseEdge{U: 3, V: 1 << 33, Ref: int64(i)}
	}
	sc := newPhase1Scratch()
	if nv := sc.intern(st); nv != 2 {
		t.Fatalf("interned %d vertices, want 2", nv)
	}
	if n := len(sc.htab); n > 1<<internStartBits {
		t.Fatalf("intern table has %d slots for 2 vertices, want at most %d", n, 1<<internStartBits)
	}
}
