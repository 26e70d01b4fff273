package euler_test

import (
	"fmt"
	"runtime"
	"testing"

	euler "repro"
)

// TestRepeatSolveStable solves the same inputs again and again, interleaved,
// on four engine slots, and holds every circuit to the one a single-slot
// solve of that input emits.  A merge that moves state between partitions
// must leave nothing behind that a later solve, or another slot, can see:
// a run still shared with a consumed child, a scratch buffer read after
// the next merge reused it, or a pooled buffer handed out twice shows
// here as a checksum that drifts from one repetition to the next.
func TestRepeatSolveStable(t *testing.T) {
	rmat, _ := euler.NewEulerianRMAT(50_000, 5, 42)
	type input struct {
		name string
		g    *euler.Graph
		opts []euler.Option
	}
	var inputs []input
	for _, parts := range []int32{8, 16} {
		for _, mode := range []euler.Mode{euler.ModeCurrent, euler.ModeDedup, euler.ModeProposed} {
			inputs = append(inputs, input{fmt.Sprintf("rmat50k/parts=%d/%v", parts, mode), rmat,
				[]euler.Option{euler.WithPartitions(parts), euler.WithMode(mode)}})
		}
	}
	inputs = append(inputs, input{"torus128/parts=8", euler.NewTorus(128, 128), []euler.Option{euler.WithPartitions(8)}})

	solve := func(in input) stepSum {
		var sum stepSum
		if _, err := euler.FindCircuitStream(in.g, sum.emit, in.opts...); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if sum.steps != in.g.NumEdges() {
			t.Fatalf("%s: circuit has %d steps, graph %d edges", in.name, sum.steps, in.g.NumEdges())
		}
		return sum
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := make([]stepSum, len(inputs))
	for i, in := range inputs {
		want[i] = solve(in)
	}
	runtime.GOMAXPROCS(4)
	for rep := 0; rep < 3; rep++ {
		for i, in := range inputs {
			if got := solve(in); got != want[i] {
				t.Errorf("%s, repetition %d at GOMAXPROCS 4: checksum %016x, at GOMAXPROCS 1 %016x",
					in.name, rep+1, got.sum, want[i].sum)
			}
		}
	}
}
