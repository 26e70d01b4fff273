package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 95); math.Abs(got-190.05) > 1e-9 {
		t.Errorf("p95 of 1..200 = %v, want 190.05", got)
	}
	if got := percentile(xs, 100); got != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("p95 of nothing = %v, want 0", got)
	}
}

// A tail percentile is quoted only with ten samples beyond it: p95 needs
// 200 samples, p90 needs 100.
func TestTailResolved(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 95, false}, {200, 95, true}, {99, 90, false}, {100, 90, true}, {1000, 99, true}, {999, 99, false},
	} {
		if got := tailResolved(c.n, c.p); got != c.want {
			t.Errorf("tailResolved(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, since that is what the acceptance check computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestCompareVerdict(t *testing.T) {
	lower := metricDef{Name: "solve_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "edges_per_s", Better: "higher", Bound: 0.10}
	s := func(median, spread float64) series { return series{Median: median, Spread: spread} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b series
		want string
	}{
		{"slower within the bound", lower, s(1, 0.02), s(1.09, 0.02), verdictOK},
		{"slower beyond the bound", lower, s(1, 0.02), s(1.11, 0.02), verdictWorse},
		{"faster", lower, s(1, 0.02), s(0.5, 0.02), verdictOK},
		{"throughput drop beyond the bound", higher, s(100, 0.02), s(89, 0.02), verdictWorse},
		{"throughput gain", higher, s(100, 0.02), s(150, 0.02), verdictOK},
		{"too noisy to tell", lower, s(1, 0.02), s(1.5, 0.12), verdictUnresolved},
	} {
		if got, _ := compareVerdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("solve", 0, 1, t0, t0.Add(100*time.Millisecond))
	run := tr.add("run", root, 1, t0.Add(10*time.Millisecond), t0.Add(70*time.Millisecond))
	tr.add("level", run, 1, t0.Add(10*time.Millisecond), t0.Add(40*time.Millisecond))
	tr.add("unroll", root, 1, t0.Add(70*time.Millisecond), t0.Add(95*time.Millisecond))
	want := map[string]float64{"solve": 15, "run": 30, "level": 30, "unroll": 25}
	for _, row := range tr.selfTimes() {
		if math.Abs(row.SelfMS-want[row.Name]) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", row.Name, row.SelfMS, want[row.Name])
		}
	}
}
