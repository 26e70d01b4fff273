package euler

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestRegistryConcurrentAbsorbIsVisited exercises the lock-free registry
// the way a superstep does: every worker absorbs its own results (disjoint
// PathIDs and vertex ranges) while all workers hammer IsVisited.  Run
// under -race this pins the atomic bitset and the per-worker shards.
func TestRegistryConcurrentAbsorbIsVisited(t *testing.T) {
	const (
		workers  = 8
		perLevel = 50
		levels   = 4
		vertsPer = 1000
	)
	numV := int64(workers * vertsPer)
	reg := NewRegistry(nil, numV, workers)

	for level := 0; level < levels; level++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w, level int) {
				defer wg.Done()
				res := &Phase1Result{}
				base := int64(w * vertsPer)
				for s := 0; s < perLevel; s++ {
					id := MakePathID(level, w, int64(s))
					res.Recs = append(res.Recs, PathRec{
						ID: id, Type: IVCycle,
						Src: base + int64(s), Dst: base + int64(s),
						Level: level, Part: w,
					})
					res.Visited = append(res.Visited, base+int64(level*perLevel+s))
				}
				if err := reg.Absorb(w, res, false); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Concurrent reads over the whole vertex space, including
				// ranges other workers are writing right now.
				for v := int64(0); v < numV; v += 37 {
					reg.IsVisited(v)
				}
			}(w, level)
		}
		wg.Wait()
	}

	if err := reg.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.NumPaths(), workers*perLevel*levels; got != want {
		t.Fatalf("NumPaths = %d, want %d", got, want)
	}
	for w := 0; w < workers; w++ {
		for level := 0; level < levels; level++ {
			for s := 0; s < perLevel; s++ {
				id := MakePathID(level, w, int64(s))
				if _, ok := reg.Rec(id); !ok {
					t.Fatalf("rec %d missing after seal", id)
				}
				v := graph.VertexID(w*vertsPer + level*perLevel + s)
				if !reg.IsVisited(v) {
					t.Fatalf("vertex %d not visited", v)
				}
			}
		}
	}
	// Vertices no worker marked must stay unvisited.
	for w := 0; w < workers; w++ {
		v := graph.VertexID(w*vertsPer + levels*perLevel)
		if reg.IsVisited(v) {
			t.Fatalf("vertex %d spuriously visited", v)
		}
	}
}

// TestRegistryAnchoredOrderDeterministic absorbs cycles anchored at one
// vertex from several workers and levels and checks the sealed anchored
// list comes out in discovery (level, then worker) order.
func TestRegistryAnchoredOrderDeterministic(t *testing.T) {
	const pivot = graph.VertexID(5)
	reg := NewRegistry(nil, 10, 4)
	// Worker reps only grow across levels, so absorption order is
	// level-major with non-decreasing worker IDs per vertex.
	var want []PathID
	for level := 0; level < 3; level++ {
		w := level + 1 // rep grows as groups merge
		id := MakePathID(level, w, 0)
		res := &Phase1Result{Recs: []PathRec{{ID: id, Type: IVCycle, Src: pivot, Dst: pivot, Level: level, Part: w}}}
		if err := reg.Absorb(w, res, false); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	got := reg.AnchoredAt(pivot)
	if len(got) != len(want) {
		t.Fatalf("anchored %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("anchored[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRegistrySealDuplicateID verifies duplicate PathIDs are still caught,
// now at Seal time instead of per-Absorb.
func TestRegistrySealDuplicateID(t *testing.T) {
	reg := NewRegistry(nil, 10, 2)
	rec := PathRec{ID: MakePathID(0, 0, 0), Type: IVCycle, Src: 1, Dst: 1}
	for w := 0; w < 2; w++ {
		if err := reg.Absorb(w, &Phase1Result{Recs: []PathRec{rec}}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Seal(); err == nil {
		t.Fatal("duplicate path ID not detected at seal")
	}
	// Seal is idempotent, including its error.
	if err := reg.Seal(); err == nil {
		t.Fatal("second Seal lost the duplicate error")
	}
}

// TestRegistryAbsorbAfterSeal verifies late absorbs are rejected instead of
// silently dropped from the sealed maps.
func TestRegistryAbsorbAfterSeal(t *testing.T) {
	reg := NewRegistry(nil, 10, 1)
	if err := reg.Seal(); err != nil {
		t.Fatal(err)
	}
	err := reg.Absorb(0, &Phase1Result{Recs: []PathRec{{ID: 1}}}, false)
	if err == nil {
		t.Fatal("absorb after seal accepted")
	}
}

// TestRegistryAbsorbCopiesResult verifies Absorb does not alias the
// result's slices: the driver reuses them as per-worker scratch.
func TestRegistryAbsorbCopiesResult(t *testing.T) {
	reg := NewRegistry(nil, 100, 1)
	res := &Phase1Result{
		Recs:    []PathRec{{ID: MakePathID(0, 0, 0), Type: IVCycle, Src: 3, Dst: 3}},
		Visited: []graph.VertexID{3},
		Seeds:   []PathID{MakePathID(0, 0, 0)},
	}
	if err := reg.Absorb(0, res, false); err != nil {
		t.Fatal(err)
	}
	// Clobber the result slices as a reusing worker would.
	res.Recs[0] = PathRec{ID: 999}
	res.Visited[0] = 99
	res.Seeds[0] = 999

	if err := reg.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Rec(MakePathID(0, 0, 0)); !ok {
		t.Fatal("rec lost after caller reused result slices")
	}
	if !reg.IsVisited(3) {
		t.Fatal("visited bit lost")
	}
	seeds := reg.Seeds()
	if len(seeds) != 1 || seeds[0] != MakePathID(0, 0, 0) {
		t.Fatalf("seeds = %v", seeds)
	}
}

// TestRegistryOutOfRangeWorker covers the shard bounds check.
func TestRegistryOutOfRangeWorker(t *testing.T) {
	reg := NewRegistry(nil, 10, 2)
	for _, w := range []int{-1, 2, 100} {
		if err := reg.Absorb(w, &Phase1Result{}, false); err == nil {
			t.Fatalf("worker %d accepted", w)
		}
	}
}

// TestRegistryBodiesConcurrentShards puts bodies the way a superstep
// does: each worker, on its own goroutine, puts its part's bodies into
// its shard without a lock and absorbs their records, level by level.
// After Seal every body is read back at its rank.  Run under -race this
// pins the lock-free body shards.
func TestRegistryBodiesConcurrentShards(t *testing.T) {
	const workers, levels, perLevel = 8, 3, 40
	reg := NewRegistry(nil, 16, workers)
	bodyOf := func(id PathID) []byte {
		return refAppendBody(nil, []Item{edgeItem(id, 1, 2), edgeItem(id+1, 2, 1)})
	}
	for level := 0; level < levels; level++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w, level int) {
				defer wg.Done()
				res := &Phase1Result{}
				buf := []byte(nil)
				for s := 0; s < perLevel; s++ {
					id := MakePathID(level, w, int64(s))
					buf = append(buf[:0], bodyOf(id)...)
					if err := reg.putBody(id, buf); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					res.Recs = append(res.Recs, PathRec{ID: id, Type: IVCycle, Src: 1, Dst: 1, Level: level, Part: w, Items: 2})
				}
				if err := reg.Absorb(w, res, false); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}(w, level)
		}
		wg.Wait()
	}
	if err := reg.Seal(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for level := 0; level < levels; level++ {
			for s := 0; s < perLevel; s++ {
				id := MakePathID(level, w, int64(s))
				got, err := encodedBody(reg, id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, bodyOf(id)) {
					t.Fatalf("body %d does not read back as put (the caller's buffer was reused)", id)
				}
			}
		}
	}
}

// TestRegistryBodyChecks covers the checks a kept body passes: each bad
// case is an error, never a panic.  (A record without a body is
// TestUnrollErrors' "store Get failure" case.)
func TestRegistryBodyChecks(t *testing.T) {
	triangle := refAppendBody(nil, closedItems(0, 1, 2, 3))
	master := &Phase1Result{Recs: []PathRec{cycleRec(1, 1)}, Seeds: []PathID{1}}
	cases := []struct {
		name  string
		setup func(reg *Registry) error
		want  string
	}{
		{"body without a record", func(reg *Registry) error {
			if err := reg.putBody(1, triangle); err != nil {
				return err
			}
			return reg.putBody(2, triangle)
		}, "euler: body 2 has no pathMap record"},
		{"second body under one ID", func(reg *Registry) error {
			if err := reg.putBody(1, triangle); err != nil {
				return err
			}
			return reg.putBody(1, triangle)
		}, "euler: duplicate body 1"},
		{"part outside the shards", func(reg *Registry) error {
			return reg.putBody(MakePathID(0, 2, 0), triangle)
		}, "euler: body 536870913 names part 2 outside the 2 shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(nil, 16, 2)
			if err := reg.Absorb(0, master, true); err != nil {
				t.Fatal(err)
			}
			err := tc.setup(reg)
			if err == nil {
				err = reg.Seal()
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %s", err, tc.want)
			}
		})
	}

	// The same part check guards bodies that arrive in an absorb band.
	band := []byte{WireV3, bandBody}
	band = binary.AppendVarint(band, MakePathID(1, 5, 0))
	band = binary.AppendUvarint(band, uint64(len(triangle)))
	band = append(band, triangle...)
	sink := NewAbsorbSink(NewRegistry(nil, 16, 2))
	if err := sink.Apply(0, 0, 2, band); err == nil || !strings.Contains(err.Error(), "outside the 2 shards") {
		t.Fatalf("band body for part 5 of 2: err = %v", err)
	}
}

// TestAbsorbedBodyLeavesFromSrc hands the coordinator a band whose body
// does not leave from its record's Src.  A band's body arrives before
// its record, so the check is Seal's: Seal must fail with a bodyError,
// and Unroll must emit nothing.
func TestAbsorbedBodyLeavesFromSrc(t *testing.T) {
	wp := &WorkerProgram{visited: make([]atomic.Uint32, 1)}
	if err := wp.putBody(1, refAppendBody(nil, closedItems(0, 2, 3, 4))); err != nil {
		t.Fatal(err)
	}
	rec := cycleRec(1, 1)
	rec.Items = 3
	if err := wp.absorb(0, &Phase1Result{Recs: []PathRec{rec}, Seeds: []PathID{1}}, true); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(nil, 16, 1)
	if err := NewAbsorbSink(reg).Apply(0, 0, 1, wp.band); err != nil {
		t.Fatal(err)
	}
	var be *bodyError
	if err := reg.Seal(); !errors.As(err, &be) {
		t.Fatalf("Seal err = %v, want a bodyError", err)
	}
	steps, err := collect(reg.Unroll)
	if err == nil || len(steps) != 0 {
		t.Fatalf("Unroll emitted %d steps, err = %v; want none and the seal error", len(steps), err)
	}
}
