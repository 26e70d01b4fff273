package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// applyScan is the reference Apply: each listed removal rescans the base
// for the earliest copy not yet taken.
func applyScan(base, add, remove [][2]int64) ([][2]int64, error) {
	edges := append([][2]int64(nil), base...)
	gone := make([]bool, len(edges))
	for _, rm := range remove {
		u, v := rm[0], rm[1]
		found := -1
		for i, ed := range edges {
			if !gone[i] && ((ed[0] == u && ed[1] == v) || (ed[0] == v && ed[1] == u)) {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("diff removes edge [%d %d] not present in the base graph", u, v)
		}
		gone[found] = true
	}
	var out [][2]int64
	for i, ed := range edges {
		if !gone[i] {
			out = append(out, ed)
		}
	}
	return append(out, add...), nil
}

// TestDeltaApplyMatchesScan checks the one-pass Apply against the
// per-removal scan over random bases and diffs: few vertices, so pairs
// repeat in the base and in the remove list, orientations are mixed, and
// some removals name pairs the base lacks or holds too few copies of.
func TestDeltaApplyMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The builder rejects self loops, so endpoints differ.
	pair := func(n int64) [2]int64 {
		u := rng.Int63n(n)
		return [2]int64{u, (u + 1 + rng.Int63n(n-1)) % n}
	}
	failures := 0
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Int63n(5)
		base := make([][2]int64, rng.Intn(24))
		for i := range base {
			base[i] = pair(n)
		}
		var remove [][2]int64
		for i := rng.Intn(8); i > 0; i-- {
			switch {
			case len(base) > 0 && rng.Intn(3) > 0:
				ed := base[rng.Intn(len(base))]
				if rng.Intn(2) == 0 {
					ed = [2]int64{ed[1], ed[0]}
				}
				remove = append(remove, ed)
			case rng.Intn(8) == 0:
				remove = append(remove, [2]int64{-1, rng.Int63n(n)})
			default:
				remove = append(remove, pair(n+2))
			}
		}
		var add [][2]int64
		for i := rng.Intn(3); i > 0; i-- {
			add = append(add, pair(n+2))
		}

		want, wantErr := applyScan(base, add, remove)
		e := &DeltaEntry{NumVertices: n, Edges: base}
		g, err := e.Apply(add, remove)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: base %v remove %v: err %v, scan's %v", trial, base, remove, err, wantErr)
		}
		if wantErr != nil {
			failures++
			continue
		}
		if got := EdgePairs(g); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
			t.Fatalf("trial %d: base %v remove %v add %v:\n got %v\nwant %v", trial, base, remove, add, got, want)
		}
	}
	if failures == 0 || failures == 2000 {
		t.Fatalf("%d of 2000 trials failed: the generator misses a case", failures)
	}
}
