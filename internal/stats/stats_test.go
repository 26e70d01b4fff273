package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 1, 2, 5, 5, 5} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(5) != 3 || h.Count(1) != 2 || h.Count(99) != 0 {
		t.Fatal("bad counts")
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 5 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestLogBin(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 100} {
		h.Add(v)
	}
	buckets := h.LogBin()
	// Expected buckets: {0}, [1,1], [2,3], [4,7], [8,15], [64,127].
	if len(buckets) != 6 {
		t.Fatalf("buckets = %+v", buckets)
	}
	if buckets[0].Count != 1 || buckets[0].Lo != 0 {
		t.Errorf("zero bucket = %+v", buckets[0])
	}
	if buckets[2].Lo != 2 || buckets[2].Hi != 3 || buckets[2].Count != 2 {
		t.Errorf("bucket [2,3] = %+v", buckets[2])
	}
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total != h.Total() {
		t.Errorf("bucket total %d != %d", total, h.Total())
	}
}

func TestFitTrendlineExact(t *testing.T) {
	// y = 3 + 2x exactly.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{3, 5, 7, 9, 11}
	tl := FitTrendline(x, y)
	if math.Abs(tl.Slope-2) > 1e-9 || math.Abs(tl.Intercept-3) > 1e-9 {
		t.Fatalf("fit = %+v", tl)
	}
	if math.Abs(tl.R2-1) > 1e-9 {
		t.Fatalf("R2 = %f, want 1", tl.R2)
	}
	if math.Abs(tl.At(10)-23) > 1e-9 {
		t.Fatalf("At(10) = %f", tl.At(10))
	}
}

func TestFitTrendlineDegenerate(t *testing.T) {
	if tl := FitTrendline(nil, nil); tl.N != 0 || tl.Slope != 0 {
		t.Fatalf("empty fit = %+v", tl)
	}
	// Constant x: no slope.
	tl := FitTrendline([]float64{2, 2, 2}, []float64{1, 5, 9})
	if tl.Slope != 0 || math.Abs(tl.Intercept-5) > 1e-9 {
		t.Fatalf("degenerate fit = %+v", tl)
	}
}

func TestFitTrendlinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FitTrendline([]float64{1}, []float64{1, 2})
}

func TestQuickTrendlineRecovers(t *testing.T) {
	f := func(aRaw, bRaw int8, nRaw uint8) bool {
		a, b := float64(aRaw), float64(bRaw)/4
		n := int(nRaw%20) + 3
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i * 7)
			y[i] = a + b*x[i]
		}
		tl := FitTrendline(x, y)
		return math.Abs(tl.Slope-b) < 1e-6 && math.Abs(tl.Intercept-a) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Graph", "|V|", "remote")
	tb.AddRow("G20/P2", 20_000_000, 0.38)
	tb.AddRow("G50/P8", 49_000_000, 0.70)
	s := tb.String()
	if !strings.Contains(s, "G20/P2") || !strings.Contains(s, "0.70") {
		t.Fatalf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	// Columns align: every line has the same prefix width for column 2.
	if len(lines[0]) == 0 || lines[1][0] != '-' {
		t.Fatalf("missing rule:\n%s", s)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %f", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {-0.5, 1}, {1.5, 4},
		{0.5, 2.5}, // midpoint interpolation
		{0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Errorf("empty quantile should be NaN")
	}
	// The input must not be reordered.
	if xs[0] != 4 || xs[3] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40})
	if s.N != 4 || s.Min != 10 || s.Max != 40 || s.Mean != 25 {
		t.Fatalf("bad summary: %+v", s)
	}
	if s.P50 != 25 {
		t.Fatalf("P50 = %v, want 25", s.P50)
	}
	if s.P99 <= s.P50 || s.P99 > s.Max {
		t.Fatalf("P99 = %v out of order", s.P99)
	}
	zero := Summarize(nil)
	if zero.N != 0 || zero.Max != 0 {
		t.Fatalf("empty summary should be zero: %+v", zero)
	}
}
