// Package stats provides the small numerical and rendering helpers the
// experiment harness uses to reproduce the paper's tables and figures as
// text: histograms for degree distributions (Fig. 4), least-squares
// trendlines for the complexity scatter (Fig. 7), and aligned-column table
// rendering for everything else.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts values into exact buckets.
type Histogram struct {
	counts map[int64]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int64]int64)}
}

// Add records one observation of v.
func (h *Histogram) Add(v int64) {
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Count returns the observations equal to v.
func (h *Histogram) Count(v int64) int64 { return h.counts[v] }

// Keys returns the distinct values in ascending order.
func (h *Histogram) Keys() []int64 {
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// LogBin groups the histogram into power-of-two buckets [2^i, 2^(i+1)),
// the presentation used by the paper's log-scale degree plot (Fig. 4).
// Bucket 0 holds the value 0 when present.
func (h *Histogram) LogBin() []LogBucket {
	byExp := make(map[int]int64)
	maxExp := 0
	for v, c := range h.counts {
		exp := 0
		if v > 0 {
			exp = int(math.Log2(float64(v))) + 1
		}
		byExp[exp] += c
		if exp > maxExp {
			maxExp = exp
		}
	}
	out := make([]LogBucket, 0, maxExp+1)
	for exp := 0; exp <= maxExp; exp++ {
		if c, ok := byExp[exp]; ok {
			lo, hi := int64(0), int64(0)
			if exp > 0 {
				lo, hi = int64(1)<<(exp-1), int64(1)<<exp-1
			}
			out = append(out, LogBucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return out
}

// LogBucket is one power-of-two degree bucket.
type LogBucket struct {
	Lo, Hi int64 // inclusive bounds; Lo==Hi==0 for the zero bucket
	Count  int64
}

// Trendline fits y = a + b·x by least squares and reports the fit quality;
// it backs the Fig. 7 expected-vs-observed analysis.
type Trendline struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
	N         int
}

// FitTrendline computes the least-squares line through (x, y).  It panics
// if the slices differ in length and returns a zero line for n < 2 or
// degenerate x.
func FitTrendline(x, y []float64) Trendline {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: %d x values vs %d y values", len(x), len(y)))
	}
	n := len(x)
	if n < 2 {
		return Trendline{N: n}
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Trendline{N: n, Intercept: my}
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return Trendline{Intercept: a, Slope: b, R2: r2, N: n}
}

// At evaluates the trendline at x.
func (t Trendline) At(x float64) float64 { return t.Intercept + t.Slope*x }

// Table renders aligned text tables for the experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Quantile returns the q-quantile (q in [0, 1]) of xs by linear
// interpolation between order statistics, the estimator the load harness
// uses for latency percentiles.  It copies and sorts; NaN for empty
// input, and q is clamped to [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over an already ascending-sorted slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary is the standard latency digest recorded per load scenario.
type Summary struct {
	N                  int
	Min, Max, Mean     float64
	P50, P90, P95, P99 float64
}

// Summarize computes the digest of xs; a zero Summary for empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Mean: Mean(sorted),
		P50:  quantileSorted(sorted, 0.50),
		P90:  quantileSorted(sorted, 0.90),
		P95:  quantileSorted(sorted, 0.95),
		P99:  quantileSorted(sorted, 0.99),
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
