package euler

import (
	"runtime"
	"testing"
)

// TestOnePartAllocation pins what one partition costs: solving the 50 k-
// vertex RMAT graph of the micro-benchmarks (132 k edges) at one part
// must allocate at most 17 MiB in total (16.0 MiB measured, Go 1.24,
// GOMAXPROCS 1, 2 and 8).  A walk or body-encode buffer regrown by append
// instead of sized to the path, or an intern table sized to endpoint
// occurrences rather than vertices, shows here first.
func TestOnePartAllocation(t *testing.T) {
	const budget = 17 << 20
	g, _ := NewEulerianRMAT(50_000, 5, 42)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var n int64
	if _, err := FindCircuitStream(g, func(Step) error { n++; return nil }, WithPartitions(1)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n != g.NumEdges() {
		t.Fatalf("circuit has %d steps, graph %d edges", n, g.NumEdges())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("one-part solve of %d edges allocated %.1f MiB, budget %d MiB",
			g.NumEdges(), float64(got)/(1<<20), budget>>20)
	}
}
