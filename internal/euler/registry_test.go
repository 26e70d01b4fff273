package euler

import (
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/spill"
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
	reg := NewRegistry(spill.NewMemStore(), numV, workers)

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
	reg := NewRegistry(spill.NewMemStore(), 10, 4)
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
	reg := NewRegistry(spill.NewMemStore(), 10, 2)
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
	reg := NewRegistry(spill.NewMemStore(), 10, 1)
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
	reg := NewRegistry(spill.NewMemStore(), 100, 1)
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
	reg := NewRegistry(spill.NewMemStore(), 10, 2)
	for _, w := range []int{-1, 2, 100} {
		if err := reg.Absorb(w, &Phase1Result{}, false); err == nil {
			t.Fatalf("worker %d accepted", w)
		}
	}
}
