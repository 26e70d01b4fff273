package euler

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/spill"
	"repro/internal/verify"
)

// mkWalk builds a closed walk over synthetic edge IDs following the vertex
// sequence (closing back to the first vertex).
func mkWalk(firstEdge graph.EdgeID, verts ...graph.VertexID) []Step {
	steps := make([]Step, 0, len(verts))
	for i := range verts {
		steps = append(steps, Step{
			Edge: firstEdge + graph.EdgeID(i),
			From: verts[i],
			To:   verts[(i+1)%len(verts)],
		})
	}
	return steps
}

func checkClosedWalk(t *testing.T, steps []Step, wantLen int) {
	t.Helper()
	if len(steps) != wantLen {
		t.Fatalf("walk has %d steps, want %d", len(steps), wantLen)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i-1].To != steps[i].From {
			t.Fatalf("walk breaks at %d: %+v -> %+v", i, steps[i-1], steps[i])
		}
	}
	if steps[0].From != steps[len(steps)-1].To {
		t.Fatal("walk not closed")
	}
	seen := map[graph.EdgeID]bool{}
	for _, s := range steps {
		if seen[s.Edge] {
			t.Fatalf("edge %d twice", s.Edge)
		}
		seen[s.Edge] = true
	}
}

// collect gathers what run emits.
func collect(run func(emit func(Step) error) error) ([]Step, error) {
	var out []Step
	err := run(func(s Step) error { out = append(out, s); return nil })
	return out, err
}

// stitch drives stitchEmit over separate walks, once with every vertex
// inside the pool index's vertex range and once with every vertex beyond
// it (one shared chain), and checks both emissions against the old
// map-indexed stitch.  The walks are logged one run per step, each step
// a one-item body of its own, so a walk need not chain.
func stitch(t *testing.T, streams [][]Step) ([]Step, error) {
	t.Helper()
	log := &runLog{}
	var starts []int
	for _, s := range streams {
		starts = append(starts, len(log.runs))
		for _, st := range s {
			k := int32(len(log.runs))
			log.bodies = append(log.bodies, []bodyItem{{ref: packRef(ItemEdge, st.Edge), to: st.To}})
			log.recs = append(log.recs, PathRec{Src: st.From})
			log.runs = append(log.runs, stepRun{at: k, k: k, n: 1})
		}
	}
	starts = append(starts, len(log.runs))
	want, wantErr := collect(func(emit func(Step) error) error {
		_, err := oldStitchEmit(streams, emit)
		return err
	})
	for _, numVerts := range []int64{64, 0} {
		out, err := collect(func(emit func(Step) error) error { return stitchEmit(log, starts, numVerts, emit) })
		if !slices.Equal(out, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("stitchEmit over %d vertices = %v, %v\nold stitch = %v, %v", numVerts, out, err, want, wantErr)
		}
	}
	return want, wantErr
}

func TestStitchSingle(t *testing.T) {
	w := mkWalk(0, 1, 2, 3)
	out, err := stitch(t, [][]Step{w})
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, out, 3)
}

func TestStitchSharedVertex(t *testing.T) {
	// Two triangles sharing vertex 2.
	a := mkWalk(0, 1, 2, 3)
	b := mkWalk(10, 2, 5, 6)
	out, err := stitch(t, [][]Step{a, b})
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, out, 6)
}

func TestStitchRotation(t *testing.T) {
	// The pool walk's shared vertex is mid-walk: rotation required.
	a := mkWalk(0, 1, 2, 3)
	b := mkWalk(10, 7, 8, 3, 9) // shares vertex 3 at position 2
	out, err := stitch(t, [][]Step{a, b})
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, out, 7)
}

func TestStitchTransitiveChain(t *testing.T) {
	// C touches only B, which touches only A: insertion of B must make C
	// reachable in the same pass.
	a := mkWalk(0, 1, 2, 3)
	b := mkWalk(10, 3, 20, 21)
	c := mkWalk(20, 21, 30, 31)
	out, err := stitch(t, [][]Step{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, out, 9)
}

func TestStitchChainRegardlessOfOrder(t *testing.T) {
	a := mkWalk(0, 1, 2, 3)
	b := mkWalk(10, 3, 20, 21)
	c := mkWalk(20, 21, 30, 31)
	// C listed before B: its attachment vertex (21) enters the merged walk
	// only after B is inserted.
	out, err := stitch(t, [][]Step{a, c, b})
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, out, 9)
}

func TestStitchDisconnected(t *testing.T) {
	a := mkWalk(0, 1, 2, 3)
	b := mkWalk(10, 7, 8, 9)
	_, err := stitch(t, [][]Step{a, b})
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("err = %v, want disconnected", err)
	}
}

func TestStitchManyAtSameVertex(t *testing.T) {
	a := mkWalk(0, 1, 2, 3)
	b := mkWalk(10, 2, 5, 6)
	c := mkWalk(20, 2, 7, 8)
	d := mkWalk(30, 2, 9, 11)
	out, err := stitch(t, [][]Step{a, b, c, d})
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, out, 12)
}

// --- The Phase 3 this package had before the streaming walker, kept as
// the reference the walker is compared against: a recursive unroller that
// decodes every body into a fresh slice and looks paths and anchors up in
// maps, expanding every root into its own slice before a map-indexed
// stitch.  The only additions are the oldPhase3 counters.

// oldPhase3 says which parts of Phase 3 one oldUnroll reached.
type oldPhase3 struct {
	reversed   int // bodies walked Dst→Src
	pool       int // root walks beyond the master's
	transitive int // pool walks spliced while another pool walk was being emitted
}

func oldUnroll(r *Registry, emit func(Step) error) (oldPhase3, error) {
	var seen oldPhase3
	master := r.Master()
	if master == 0 {
		return seen, fmt.Errorf("euler: no master cycle registered (run the driver first)")
	}
	u := &oldUnroller{reg: r, emitted: make(map[PathID]bool)}
	roots := append([]PathID{master}, r.Seeds()...)
	var streams [][]Step
	for _, root := range roots {
		if u.emitted[root] {
			continue
		}
		u.emitted[root] = true
		u.consumed++
		u.cur = u.cur[:0:0]
		if err := u.walk(root, true); err != nil {
			return seen, err
		}
		if len(u.cur) == 0 {
			return seen, fmt.Errorf("euler: root cycle %d expanded to an empty walk", root)
		}
		if u.cur[0].From != u.cur[len(u.cur)-1].To {
			return seen, fmt.Errorf("euler: root cycle %d expansion is not closed (%d → %d)",
				root, u.cur[0].From, u.cur[len(u.cur)-1].To)
		}
		streams = append(streams, u.cur)
	}
	if u.consumed != r.NumPaths() {
		return seen, fmt.Errorf("euler: circuit incomplete: %d of %d paths/cycles unrolled (registry corruption)",
			u.consumed, r.NumPaths())
	}
	seen.reversed, seen.pool = u.reversed, len(streams)-1
	var err error
	seen.transitive, err = oldStitchEmit(streams, emit)
	return seen, err
}

func oldStitchEmit(streams [][]Step, emit func(Step) error) (transitive int, err error) {
	merged := streams[0]
	pool := streams[1:]
	if len(pool) == 0 {
		for _, s := range merged {
			if err := emit(s); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	// Index every pool walk by the vertices it passes through.
	type ref struct{ stream, pos int }
	index := make(map[graph.VertexID][]ref)
	for si, s := range pool {
		for pos, step := range s {
			index[step.From] = append(index[step.From], ref{stream: si, pos: pos})
		}
	}
	used := make([]bool, len(pool))
	remaining := len(pool)
	var emitSeq func(steps []Step, depth int) error
	emitSeq = func(steps []Step, depth int) error {
		for i := range steps {
			st := steps[i]
			if remaining > 0 {
				var picked []ref
				for _, rf := range index[st.From] {
					if used[rf.stream] {
						continue
					}
					used[rf.stream] = true
					remaining--
					picked = append(picked, rf)
				}
				if depth > 0 {
					transitive += len(picked)
				}
				for j := len(picked) - 1; j >= 0; j-- {
					s := pool[picked[j].stream]
					if err := emitSeq(s[picked[j].pos:], depth+1); err != nil {
						return err
					}
					if err := emitSeq(s[:picked[j].pos], depth+1); err != nil {
						return err
					}
				}
			}
			if err := emit(st); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitSeq(merged, 0); err != nil {
		return transitive, err
	}
	if remaining > 0 {
		return transitive, fmt.Errorf("euler: %d closed walks share no vertex with the circuit: input graph is disconnected", remaining)
	}
	return transitive, nil
}

type oldUnroller struct {
	reg       *Registry
	emitted   map[PathID]bool
	consumed  int
	cur       []Step
	anchorPos map[graph.VertexID]int
	reversed  int
}

func (u *oldUnroller) splice(v graph.VertexID) error {
	if u.anchorPos == nil {
		u.anchorPos = make(map[graph.VertexID]int)
	}
	for {
		cycles := u.reg.AnchoredAt(v)
		pos := u.anchorPos[v]
		if pos >= len(cycles) {
			return nil
		}
		u.anchorPos[v] = pos + 1
		id := cycles[pos]
		if u.emitted[id] {
			continue
		}
		u.emitted[id] = true
		u.consumed++
		if err := u.walk(id, true); err != nil {
			return err
		}
	}
}

func (u *oldUnroller) walk(id PathID, forward bool) error {
	body, err := encodedBody(u.reg, id)
	if err != nil {
		return fmt.Errorf("euler: loading body %d: %w", id, err)
	}
	items, err := decodeBody(body)
	if err != nil {
		return fmt.Errorf("euler: decoding body %d: %w", id, err)
	}
	if !forward {
		u.reversed++
	}
	for i := range items {
		it := items[i]
		if !forward {
			it = items[len(items)-1-i]
			it.From, it.To = it.To, it.From
		}
		if err := u.splice(it.From); err != nil {
			return err
		}
		switch it.Kind {
		case ItemEdge:
			u.cur = append(u.cur, Step{Edge: it.Ref, From: it.From, To: it.To})
		case ItemPath:
			sub, ok := u.reg.Rec(it.Ref)
			if !ok {
				return fmt.Errorf("euler: body %d references unknown path %d", id, it.Ref)
			}
			if u.emitted[it.Ref] {
				return fmt.Errorf("euler: path %d referenced twice", it.Ref)
			}
			u.emitted[it.Ref] = true
			u.consumed++
			subForward := it.From == sub.Src
			if !subForward && it.From != sub.Dst {
				return fmt.Errorf("euler: body %d enters path %d at %d, which is neither endpoint (%d,%d)",
					id, it.Ref, it.From, sub.Src, sub.Dst)
			}
			if err := u.walk(it.Ref, subForward); err != nil {
				return err
			}
		default:
			return fmt.Errorf("euler: body %d has bad item kind %d", id, it.Kind)
		}
	}
	return nil
}

// --- Hand-built registries.

// testPath is one pathMap entry of a hand-built registry and its body:
// raw when set, the encoding of items otherwise, nothing when missing.
type testPath struct {
	rec     PathRec
	items   []Item
	raw     []byte
	missing bool
}

func edgeItem(ref int64, from, to graph.VertexID) Item {
	return Item{Kind: ItemEdge, Ref: ref, From: from, To: to}
}

func pathItem(ref PathID, from, to graph.VertexID) Item {
	return Item{Kind: ItemPath, Ref: ref, From: from, To: to}
}

func cycleRec(id PathID, pivot graph.VertexID) PathRec {
	return PathRec{ID: id, Type: IVCycle, Src: pivot, Dst: pivot}
}

// closedItems is mkWalk as body items.
func closedItems(firstEdge graph.EdgeID, verts ...graph.VertexID) []Item {
	var items []Item
	for _, s := range mkWalk(firstEdge, verts...) {
		items = append(items, edgeItem(s.Edge, s.From, s.To))
	}
	return items
}

// buildRegistry absorbs paths as the root partition's result over 16
// vertices: roots[0] becomes the master and the other roots floating
// seeds.  The registry is left for its first reader to seal.
func buildRegistry(t *testing.T, roots []PathID, paths ...testPath) *Registry {
	t.Helper()
	reg := NewRegistry(nil, 16, 1)
	res := &Phase1Result{Seeds: roots}
	for _, p := range paths {
		body := p.raw
		if body == nil {
			body = refAppendBody(nil, p.items)
		}
		if !p.missing {
			if err := reg.putBody(p.rec.ID, body); err != nil {
				t.Fatal(err)
			}
		}
		p.rec.Items = int64(len(p.items))
		res.Recs = append(res.Recs, p.rec)
	}
	if err := reg.Absorb(0, res, true); err != nil {
		t.Fatal(err)
	}
	return reg
}

// transitiveRegistry is TestStitchTransitiveChain as a registry: cycle 2
// pivots at 10 and touches the master only mid-walk (at 3), cycle 3 pivots
// at 12 and touches only cycle 2 (at 11), so neither is spliced as an
// anchored cycle and 3 reaches the circuit only through 2.  The master
// also takes OB path 4 backwards.
func transitiveRegistry(t *testing.T) *Registry {
	return buildRegistry(t, []PathID{1, 3, 2},
		testPath{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 2), pathItem(4, 2, 3), edgeItem(1, 3, 1)}},
		testPath{rec: cycleRec(2, 10), items: closedItems(10, 10, 11, 3)},
		testPath{rec: cycleRec(3, 12), items: closedItems(20, 12, 13, 11)},
		testPath{rec: PathRec{ID: 4, Type: OBPath, Src: 3, Dst: 2}, items: []Item{edgeItem(30, 3, 4), edgeItem(31, 4, 2)}},
	)
}

// --- The walker against the old Phase 3.

// matchOldUnroll asserts Unroll emits exactly what oldUnroll emits, with
// the same error, and returns the steps and what the old run reached.
func matchOldUnroll(t *testing.T, reg *Registry) ([]Step, oldPhase3, error) {
	t.Helper()
	got, err := collect(reg.Unroll)
	var seen oldPhase3
	want, wantErr := collect(func(emit func(Step) error) (err error) {
		seen, err = oldUnroll(reg, emit)
		return err
	})
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("Unroll error %v, old Phase 3 error %v", err, wantErr)
	}
	if err == nil && !slices.Equal(got, want) {
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("step %d of %d: Unroll %+v, old Phase 3 %+v of %d", i, len(got), got[i], want[min(i, len(want)-1)], len(want))
			}
		}
		t.Fatalf("Unroll emitted %d steps, old Phase 3 %d", len(got), len(want))
	}
	return got, seen, err
}

// phase3Coverage accumulates which walker paths a differential test hit.
type phase3Coverage struct{ direct, multiRoot, transitive, reversed int }

func (c *phase3Coverage) add(reg *Registry, seen oldPhase3) {
	if len(reg.Seeds()) == 0 {
		c.direct++
	}
	if seen.pool > 0 {
		c.multiRoot++
	}
	c.transitive += seen.transitive
	c.reversed += seen.reversed
}

func (c *phase3Coverage) require(t *testing.T) {
	t.Helper()
	t.Logf("coverage: %+v", *c)
	if c.direct == 0 || c.multiRoot == 0 || c.transitive == 0 || c.reversed == 0 {
		t.Fatalf("differential test missed a walker path: %+v", *c)
	}
}

// TestUnrollMatchesOldUnroll pins the streaming walker to the old Phase 3
// step for step: every generator family, mode, part count and store.
func TestUnrollMatchesOldUnroll(t *testing.T) {
	rmat, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: 512, AvgDegree: 6, A: 0.57, B: 0.19, C: 0.19, Seed: 17})
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"torus", gen.Torus(12, 8)},
		{"cycle", gen.Cycle(64)},
		{"complete-odd", gen.CompleteOdd(9)},
		{"ring-of-cliques", gen.RingOfCliques(6, 7)},
		{"random-eulerian", gen.RandomEulerian(120, 4, 30, rand.New(rand.NewSource(5)))},
		{"hypercube", gen.Hypercube(6)},
		{"bipartite", gen.CompleteBipartite(6, 8)},
		{"rmat", rmat},
	}
	var cov phase3Coverage
	for _, fam := range families {
		for _, mode := range []Mode{ModeCurrent, ModeDedup, ModeProposed} {
			for _, parts := range []int32{1, 2, 5, 8} {
				for _, disk := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/parts=%d/disk=%v", fam.name, mode, parts, disk)
					var store spill.Store
					if disk {
						ds, err := spill.NewDiskStore(filepath.Join(t.TempDir(), "bodies.log"))
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { ds.Close() })
						store = ds
					}
					res, err := Run(fam.g, partition.LDG(fam.g, parts, 1), Config{Mode: mode, Store: store})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					steps, seen, err := matchOldUnroll(t, res.Registry)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := verify.Circuit(fam.g, steps); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cov.add(res.Registry, seen)
				}
			}
		}
	}
	chain := transitiveRegistry(t)
	steps, seen, err := matchOldUnroll(t, chain)
	if err != nil {
		t.Fatal(err)
	}
	checkClosedWalk(t, steps, 10)
	cov.add(chain, seen)
	cov.require(t)
}

// TestUnrollMatchesOldUnrollRandom is the same comparison over seeded
// random Eulerian multigraphs (closed-walk unions with extra parallel
// edge pairs; graph.Builder admits no self loops) under random
// assignments, modes and part counts.
func TestUnrollMatchesOldUnrollRandom(t *testing.T) {
	var cov phase3Coverage
	for seed := int64(1); seed <= 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Int63n(120)
		base := gen.RandomEulerian(n, rng.Intn(8), 3+rng.Int63n(10), rng)
		b := graph.NewBuilder(n, int(base.NumEdges())+8)
		for id := int64(0); id < base.NumEdges(); id++ {
			b.AddEdge(base.Edge(id).U, base.Edge(id).V)
		}
		for i := rng.Intn(5); i > 0; i-- {
			e := base.Edge(rng.Int63n(base.NumEdges()))
			b.AddEdge(e.U, e.V)
			b.AddEdge(e.V, e.U)
		}
		g := b.Build()
		parts := 1 + rng.Int31n(8)
		a := partition.Assignment{Parts: parts, Of: make([]int32, n)}
		for i, v := range rng.Perm(int(n)) {
			// The first vertices of the permutation keep every part non-empty.
			if a.Of[v] = int32(i); int32(i) >= parts {
				a.Of[v] = rng.Int31n(parts)
			}
		}
		mode := Mode(rng.Intn(3))
		res, err := Run(g, a, Config{Mode: mode})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		steps, seen, err := matchOldUnroll(t, res.Registry)
		if err != nil {
			t.Fatalf("seed %d (n=%d parts=%d mode=%v): %v", seed, n, parts, mode, err)
		}
		if err := verify.Circuit(g, steps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cov.add(res.Registry, seen)
	}
	cov.require(t)
}

// --- Error paths.

// TestUnrollErrors drives every Phase 3 failure through a hand-built
// registry and pins its text, which is also what the old Phase 3 said.
func TestUnrollErrors(t *testing.T) {
	triangle := closedItems(0, 1, 2, 3)
	obPath := testPath{rec: PathRec{ID: 2, Type: OBPath, Src: 2, Dst: 3}, items: []Item{edgeItem(5, 2, 3)}}
	encoded := refAppendBody(nil, triangle)
	cases := []struct {
		name  string
		roots []PathID
		paths []testPath
		want  string
	}{
		{"unknown path", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 2), pathItem(99, 2, 1)}}},
			"euler: body 1 references unknown path 99"},
		{"path referenced twice", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 2), pathItem(2, 2, 3), edgeItem(1, 3, 2), pathItem(2, 2, 3), edgeItem(2, 3, 1)}}, obPath},
			"euler: path 2 referenced twice"},
		{"entry at neither endpoint", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 4), pathItem(2, 4, 3), edgeItem(1, 3, 1)}}, obPath},
			"euler: body 1 enters path 2 at 4, which is neither endpoint (2,3)"},
		{"empty root", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1)}},
			"euler: root cycle 1 expanded to an empty walk"},
		{"unclosed root", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 2)}}},
			"euler: root cycle 1 expansion is not closed (1 → 2)"},
		{"unclosed floating root", []PathID{1, 2},
			[]testPath{{rec: cycleRec(1, 1), items: triangle}, {rec: cycleRec(2, 7), items: []Item{edgeItem(9, 7, 8)}}},
			"euler: root cycle 2 expansion is not closed (7 → 8)"},
		{"incomplete circuit", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: triangle}, obPath},
			"euler: circuit incomplete: 1 of 2 paths/cycles unrolled (registry corruption)"},
		{"disconnected pool walk", []PathID{1, 2},
			[]testPath{{rec: cycleRec(1, 1), items: triangle}, {rec: cycleRec(2, 7), items: closedItems(10, 7, 8, 9)}},
			"euler: 1 closed walks share no vertex with the circuit: input graph is disconnected"},
		{"store Get failure", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 2), pathItem(2, 2, 3), edgeItem(1, 3, 1)}}, {rec: obPath.rec, missing: true}},
			"euler: loading body 2: euler: path 2 has no body"},
		{"truncated body", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), raw: encoded[:len(encoded)-1]}},
			"euler: decoding body 1: euler: truncated varint at offset 11"},
		{"trailing bytes", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), raw: append(slices.Clone(encoded), 0)}},
			"euler: decoding body 1: euler: 1 trailing bytes"},
		{"item count beyond payload", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), raw: []byte{WireV3, 0x7f}}},
			"euler: decoding body 1: euler: body item count 127 exceeds payload size"},
		{"reversed body truncated", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), items: []Item{edgeItem(0, 1, 3), pathItem(2, 3, 2), edgeItem(1, 2, 1)}},
				{rec: obPath.rec, raw: refAppendBody(nil, []Item{edgeItem(5, 2, 4), edgeItem(6, 4, 3)})[:8]}},
			"euler: decoding body 2: euler: truncated varint at offset 8"},
		{"legacy body", []PathID{1},
			[]testPath{{rec: cycleRec(1, 1), raw: encoded[1:]}},
			"euler: decoding body 1: " + errLegacy("body").Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := matchOldUnroll(t, buildRegistry(t, tc.roots, tc.paths...))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v\nwant  %s", err, tc.want)
			}
		})
	}

	// Kinds come off the wire as one bit, so only a walker handed an item
	// directly can meet a bad one.
	w := &walker{reg: transitiveRegistry(t)}
	if err := w.reg.Seal(); err != nil {
		t.Fatal(err)
	}
	err := w.item(1, Item{Kind: 7, From: 1, To: 2}, itemAt{})
	if want := "euler: body 1 has bad item kind 7"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
}

// TestUnrollErrorAfterDirectEmission pins what a caller of Unroll sees
// when a run without floating cycles fails part-way: the steps before the
// failure have already reached emit, and the error says what broke.
func TestUnrollErrorAfterDirectEmission(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(8, 61))
	store := newFailingStore(t, -1<<40, -1<<40)
	res, err := Run(g, partition.LDG(g, 2, 1), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Registry.Seeds()); n != 0 {
		t.Fatalf("input has %d floating cycles; this test needs the direct path", n)
	}
	atomic.StoreInt64(&store.getsLeft, 6)
	steps, err := collect(res.Registry.Unroll)
	if err == nil || !strings.Contains(err.Error(), "injected get failure") {
		t.Fatalf("err = %v, want injected get failure", err)
	}
	if len(steps) == 0 || int64(len(steps)) >= g.NumEdges() {
		t.Fatalf("%d of %d steps emitted before the failure, want a proper prefix", len(steps), g.NumEdges())
	}
	circuit, err := res.Registry.CollectCircuit()
	if err != nil || verify.Circuit(g, circuit) != nil {
		t.Fatalf("unroll after the store recovered: %v", err)
	}
	if !slices.Equal(steps, circuit[:len(steps)]) {
		t.Fatal("steps emitted before the failure are not a prefix of the circuit")
	}
	if cap(circuit) != len(circuit) {
		t.Fatalf("CollectCircuit sized its result %d for %d steps", cap(circuit), len(circuit))
	}
}

// TestUnrollReportsLazySealError: a registry that reaches Unroll without
// an explicit Seal must report why it cannot seal, not the empty pathMap
// the failed seal leaves behind.
func TestUnrollReportsLazySealError(t *testing.T) {
	reg := NewRegistry(nil, 16, 2)
	if err := reg.putBody(1, refAppendBody(nil, closedItems(0, 1, 2, 3))); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		res := &Phase1Result{Recs: []PathRec{cycleRec(1, 1)}}
		if err := reg.Absorb(w, res, w == 0); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := collect(reg.Unroll)
	if want := "euler: duplicate path ID 1"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if len(steps) != 0 {
		t.Fatalf("%d steps emitted from an unsealable registry", len(steps))
	}
}

// --- Body forms.

// bodyForms counts the bodies a sealed registry keeps typed and encoded.
func bodyForms(r *Registry) (typed, encoded int) {
	for k := range r.recs {
		if r.typed != nil && r.typed[k] != nil {
			typed++
		}
		if r.encoded != nil && r.encoded[k] != nil {
			encoded++
		}
	}
	return typed, encoded
}

// TestUnrollMixedBodyForms unrolls registries whose bodies came typed
// from an in-process tour, encoded from a retained record (a delta
// replay, beside the dirty nodes' typed bodies), encoded from a loopback
// cluster's absorb bands and spilled to a disk store, over inputs with
// floating cycles: each circuit must be the from-scratch in-memory
// solve's.
func TestUnrollMixedBodyForms(t *testing.T) {
	solveOnCluster := loopbackExecutor(t)
	for _, in := range []struct {
		name  string
		g     *graph.Graph
		parts int32
	}{
		{"floating", gen.Torus(12, 8), 5},
		{"torus64", gen.Torus(64, 64), 8},
		{"cliques", gen.RingOfCliques(64, 7), 8},
	} {
		t.Run(in.name, func(t *testing.T) {
			unroll := func(res *Result, err error) []Step {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				steps, err := res.Registry.CollectCircuit()
				if err != nil {
					t.Fatal(err)
				}
				return steps
			}
			a := partition.LDG(in.g, in.parts, 1)
			scratch, err := Run(in.g, a, Config{})
			want := unroll(scratch, err)
			if len(scratch.Registry.Seeds()) == 0 {
				t.Fatal("input has no floating cycles")
			}
			if typed, encoded := bodyForms(scratch.Registry); typed == 0 || encoded != 0 {
				t.Fatalf("in-memory registry keeps %d typed and %d encoded bodies, want typed only", typed, encoded)
			}
			if err := verify.Circuit(in.g, want); err != nil {
				t.Fatal(err)
			}

			if got := unroll(solveOnCluster(context.Background(), in.g, a, Config{})); !slices.Equal(got, want) {
				t.Fatal("loopback cluster circuit differs from the in-memory solve")
			}
			ds, err := spill.NewDiskStore(filepath.Join(t.TempDir(), "bodies.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if got := unroll(Run(in.g, a, Config{Store: ds})); !slices.Equal(got, want) {
				t.Fatal("spilled circuit differs from the in-memory solve")
			}

			retained, err := Run(in.g, a, Config{Record: true})
			if err != nil {
				t.Fatal(err)
			}
			patched := withTriangle(rand.New(rand.NewSource(2)), in.g)
			delta, err := Run(patched, a, Config{Replay: retained.Retained})
			got := unroll(delta, err)
			if typed, encoded := bodyForms(delta.Registry); typed == 0 || encoded == 0 {
				t.Fatalf("delta registry keeps %d typed and %d encoded bodies, want both", typed, encoded)
			}
			if got2 := unroll(Run(patched, a, Config{})); !slices.Equal(got, got2) {
				t.Fatal("delta circuit differs from the patched graph's in-memory solve")
			}
		})
	}
}

// TestUnrollAllocation bounds what an in-memory Unroll allocates on a
// torus, whose floating cycles make every root expand before the stitch:
// the walks are logged as runs, so the allocation is the run log, the
// stitch index and the per-path marks, not a buffer of the circuit's
// 24 B steps.
func TestUnrollAllocation(t *testing.T) {
	g := gen.Torus(256, 256)
	res, err := Run(g, partition.LDG(g, 8, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Registry.Seeds()) == 0 {
		t.Fatal("input has no floating cycles")
	}
	var steps int64
	emit := func(Step) error { steps++; return nil }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = res.Registry.Unroll(emit)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if steps != g.NumEdges() {
		t.Fatalf("unrolled %d steps of %d edges", steps, g.NumEdges())
	}
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / float64(steps)
	t.Logf("%.2f B per step", perStep)
	if perStep >= 4 {
		t.Fatalf("Unroll allocated %.2f B per step, want under 4", perStep)
	}
}
