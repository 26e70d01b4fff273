package euler

import (
	"fmt"
	"math/rand"
	"testing"

	ieuler "repro/internal/euler"
)

// collectSteps runs fn and returns the emitted steps.
func collectSteps(t *testing.T, run func(emit func(Step) error) error) []Step {
	t.Helper()
	var steps []Step
	if err := run(func(s Step) error {
		steps = append(steps, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return steps
}

func sameSteps(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// doubleEdge returns g plus two extra parallel copies of edge id e, which
// preserves degree parity and connectivity.
func doubleEdge(g *Graph, e int64) *Graph {
	b := NewBuilder(g.NumVertices(), int(g.NumEdges())+2)
	for id := int64(0); id < g.NumEdges(); id++ {
		ed := g.Edge(id)
		b.AddEdge(ed.U, ed.V)
	}
	ed := g.Edge(e)
	b.AddEdge(ed.U, ed.V)
	b.AddEdge(ed.U, ed.V)
	return b.Build()
}

// TestDeltaReusesCleanPartitions checks the headline property on a
// partition-local input: a doubled intra-clique edge dirties one leaf, the
// delta run replays the rest, and the circuit matches a from-scratch solve
// byte for byte.
func TestDeltaReusesCleanPartitions(t *testing.T) {
	base := NewRingOfCliques(8, 5)
	opts := []Option{WithPartitions(4), WithSeed(7)}

	var retained []byte
	baseSteps := collectSteps(t, func(emit func(Step) error) error {
		_, r, err := FindCircuitStreamRetain(base, emit, opts...)
		retained = r
		return err
	})
	if len(retained) == 0 {
		t.Fatal("no retained record")
	}
	if err := Verify(base, baseSteps); err != nil {
		t.Fatal(err)
	}

	patched := doubleEdge(base, 3)
	fullSteps := collectSteps(t, func(emit func(Step) error) error {
		_, err := FindCircuitStream(patched, emit, opts...)
		return err
	})

	var report *Report
	var chained []byte
	deltaSteps := collectSteps(t, func(emit func(Step) error) error {
		r, next, err := FindCircuitStreamDelta(patched, emit, retained, opts...)
		report, chained = r, next
		return err
	})
	if !sameSteps(fullSteps, deltaSteps) {
		t.Fatalf("delta circuit differs from full solve (%d vs %d steps)", len(deltaSteps), len(fullSteps))
	}
	if report.ReusedParts == 0 {
		t.Fatal("delta run reused no partitions on a partition-local edit")
	}
	t.Logf("reused %d merge-tree nodes", report.ReusedParts)

	// Chain: a further edit against the delta run's own retained record.
	patched2 := doubleEdge(patched, patched.NumEdges()-4)
	full2 := collectSteps(t, func(emit func(Step) error) error {
		_, err := FindCircuitStream(patched2, emit, opts...)
		return err
	})
	delta2 := collectSteps(t, func(emit func(Step) error) error {
		_, _, err := FindCircuitStreamDelta(patched2, emit, chained, opts...)
		return err
	})
	if !sameSteps(full2, delta2) {
		t.Fatal("chained delta circuit differs from full solve")
	}
}

// TestDeltaByteIdenticalProperty is the property-style sweep: random
// Eulerian multigraphs, random small diffs (doubled existing edges — the
// only universally parity- and connectivity-preserving single-pair edit),
// across partition counts and modes.  The delta solve must match the full
// solve of the patched graph byte for byte even when the edit perturbs the
// partitioning and nothing can be reused.
func TestDeltaByteIdenticalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	modes := []Mode{ModeCurrent, ModeDedup, ModeProposed}
	for trial := 0; trial < 6; trial++ {
		g := NewRandomEulerian(40+int64(rng.Intn(80)), 2+rng.Intn(3), 30, rng)
		parts := int32(2 + rng.Intn(3))
		mode := modes[trial%len(modes)]
		opts := []Option{WithPartitions(parts), WithMode(mode), WithSeed(int64(trial))}
		t.Run(fmt.Sprintf("trial=%d/parts=%d/mode=%v", trial, parts, mode), func(t *testing.T) {
			var retained []byte
			baseSteps := collectSteps(t, func(emit func(Step) error) error {
				_, r, err := FindCircuitStreamRetain(g, emit, opts...)
				retained = r
				return err
			})
			if err := Verify(g, baseSteps); err != nil {
				t.Fatal(err)
			}

			patched := g
			for i, n := 0, 1+rng.Intn(3); i < n; i++ {
				patched = doubleEdge(patched, rng.Int63n(patched.NumEdges()))
			}
			full := collectSteps(t, func(emit func(Step) error) error {
				_, err := FindCircuitStream(patched, emit, opts...)
				return err
			})
			var report *Report
			delta := collectSteps(t, func(emit func(Step) error) error {
				r, _, err := FindCircuitStreamDelta(patched, emit, retained, opts...)
				report = r
				return err
			})
			if !sameSteps(full, delta) {
				t.Fatalf("delta differs from full solve (%d vs %d steps, reused=%d)",
					len(delta), len(full), report.ReusedParts)
			}
			if err := Verify(patched, delta); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeltaRetainedRecordRoundTrip guards the retention codec itself.
func TestDeltaRetainedRecordRoundTrip(t *testing.T) {
	g := NewTorus(6, 6)
	var retained []byte
	collectSteps(t, func(emit func(Step) error) error {
		_, r, err := FindCircuitStreamRetain(g, emit, WithPartitions(3))
		retained = r
		return err
	})
	// An identical re-solve against the record must reuse every node.
	var report *Report
	steps := collectSteps(t, func(emit func(Step) error) error {
		r, _, err := FindCircuitStreamDelta(g, emit, retained, WithPartitions(3))
		report = r
		return err
	})
	full := collectSteps(t, func(emit func(Step) error) error {
		_, err := FindCircuitStream(g, emit, WithPartitions(3))
		return err
	})
	if !sameSteps(full, steps) {
		t.Fatal("identity delta differs from full solve")
	}
	if report.ReusedParts == 0 {
		t.Fatalf("identity delta reused nothing")
	}
	t.Logf("identity delta reused %d nodes", report.ReusedParts)

	// Corrupt retained bytes must error, not mis-replay.
	if len(retained) > 0 {
		bad := append([]byte(nil), retained...)
		bad[0] ^= 0xFF
		if _, _, err := FindCircuitStreamDelta(g, func(Step) error { return nil }, bad, WithPartitions(3)); err == nil {
			t.Fatal("corrupt retained record accepted")
		}
	}
}

// TestDeltaPartialRetainedPlan: a retained record whose plan is only a
// slice of the run's workers (a congruent schedule, but not every leaf) is
// drift — a full recompute equal to a from-scratch solve, not a panic.
func TestDeltaPartialRetainedPlan(t *testing.T) {
	g := NewTorus(8, 8)
	a := PartitionLDG(g, 4, 1)
	plan, _, err := ieuler.BuildPlan(g, a, ieuler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	slice, err := plan.EncodeSlice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	retained := ieuler.EncodeRunRecord(&ieuler.RunRecord{PlanBytes: slice})
	var report *Report
	steps := collectSteps(t, func(emit func(Step) error) error {
		r, _, err := FindCircuitStreamDelta(g, emit, retained, WithAssignment(a))
		report = r
		return err
	})
	full := collectSteps(t, func(emit func(Step) error) error {
		_, err := FindCircuitStream(g, emit, WithAssignment(a))
		return err
	})
	if report.ReusedParts != 0 {
		t.Errorf("reused %d parts from a partial plan, want 0", report.ReusedParts)
	}
	if !sameSteps(full, steps) {
		t.Fatal("delta over a partial retained plan differs from the full solve")
	}
}
