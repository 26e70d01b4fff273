package euler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/verify"
)

// TestQuickEndToEnd is the headline property test: for random connected
// Eulerian multigraphs, random partition counts, random partitioners, and
// every execution mode, the full pipeline yields a verified Euler circuit.
func TestQuickEndToEnd(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(nRaw%120) + 8
		g := gen.RandomEulerian(n, int(kRaw%8), 8, rng)
		k := int32(kRaw%6) + 1
		if int64(k) > n {
			k = 1
		}
		var a partition.Assignment
		switch mRaw % 3 {
		case 0:
			a = partition.LDG(g, k, seed)
		case 1:
			a = partition.Hash(g, k)
		default:
			a = partition.Range(g, k)
		}
		mode := Mode(mRaw % 3)
		res, err := Run(g, a, Config{Mode: mode, Validate: true})
		if err != nil {
			t.Logf("seed=%d n=%d k=%d mode=%v: Run: %v", seed, n, k, mode, err)
			return false
		}
		steps, err := res.Registry.CollectCircuit()
		if err != nil {
			t.Logf("seed=%d n=%d k=%d mode=%v: unroll: %v", seed, n, k, mode, err)
			return false
		}
		if err := verify.Circuit(g, steps); err != nil {
			t.Logf("seed=%d n=%d k=%d mode=%v: verify: %v", seed, n, k, mode, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMemoryMonotonicity checks the Fig. 8 property for the paper's
// implemented design (ModeCurrent): cumulative in-memory state never grows
// from one level to the next, because merges turn two 2-Long remote copies
// into one 3-Long local edge and Phase 1 keeps consolidating.  (The dedup
// modes trade this guarantee for a much lower base, since their single
// 2-Long copy grows to 3 Longs on conversion.)
func TestQuickMemoryMonotonicity(t *testing.T) {
	f := func(seed int64, kRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomEulerian(150, 10, 12, rng)
		k := int32(kRaw%7) + 2
		a := partition.LDG(g, k, seed)
		mode := ModeCurrent
		_ = mRaw
		res, err := Run(g, a, Config{Mode: mode})
		if err != nil {
			t.Logf("seed=%d: %v", seed, err)
			return false
		}
		prev := int64(-1)
		for _, l := range res.Report.Levels {
			if prev >= 0 && l.CumulativeLongs > prev {
				t.Logf("seed=%d k=%d mode=%v: level %d grew %d → %d",
					seed, k, mode, l.Level, prev, l.CumulativeLongs)
				return false
			}
			prev = l.CumulativeLongs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCircuitMatchesSequentialLength checks the distributed circuit
// covers exactly as many edges as the graph has, for the same inputs the
// sequential baseline handles — the two are edge-permutation equivalent.
func TestQuickAllEdgesOnce(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomEulerian(80, 5, 9, rng)
		k := int32(kRaw%4) + 2
		a := partition.LDG(g, k, seed)
		res, err := Run(g, a, Config{})
		if err != nil {
			return false
		}
		seen := make([]int, g.NumEdges())
		err = res.Registry.Unroll(func(s Step) error {
			seen[s.Edge]++
			return nil
		})
		if err != nil {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
