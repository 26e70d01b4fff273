package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Verdicts of compare for one pairing of workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareVerdict judges metric d going from series a to series b: worse
// when b's median is worse than a's by more than the bound, unresolved
// when either side's own run-to-run spread is wider than the bound, so
// that a difference of that size could not be told from noise.  The
// second value is the change towards worse, as a share of a's median.
func compareVerdict(d metricDef, a, b series) (string, float64) {
	change := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case math.Max(a.Spread, b.Spread) > d.Bound:
		return verdictUnresolved, change
	case change > d.Bound:
		return verdictWorse, change
	}
	return verdictOK, change
}

// compareMain prints one row per workload and end-to-end metric of two
// result files and fails when any row is worse.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	var sides [2]suiteResults
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sides[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := sides[0], sides[1]
	fmt.Printf("A = %s (%d runs of %d s), B = %s (%d runs of %d s)\n", args[0], a.Runs, a.Seconds, args[1], b.Runs, b.Seconds)
	fmt.Printf("%-18s %-16s %14s %14s %-8s %22s %7s  %s\n", "workload", "metric", "median A", "median B", "unit", "B/A (base: A)", "bound", "verdict")
	worse := 0
	for _, w := range workloadNames() {
		wa, inA := a.Workloads[w]
		wb, inB := b.Workloads[w]
		if !inA || !inB {
			continue
		}
		for _, d := range bf.EndToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			verdict, change := compareVerdict(d, sa, sb)
			if verdict == verdictWorse {
				worse++
			}
			ratio := fmt.Sprintf("%.3f of %.5g", sb.Median/sa.Median, sa.Median)
			fmt.Printf("%-18s %-16s %14.6g %14.6g %-8s %22s %6.0f%%  %s (%+.1f %% towards worse; spreads %.1f %%, %.1f %%)\n",
				w, d.Name, sa.Median, sb.Median, d.Unit, ratio, 100*d.Bound, verdict, 100*change, 100*sa.Spread, 100*sb.Spread)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-18s failed operations: %d of %d in A, %d of %d in B\n", w, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			worse++
		}
	}
	for _, name := range exactCounts {
		for _, w := range workloadNames() {
			va, inA := a.Workloads[w].PerLayer[name]
			vb, inB := b.Workloads[w].PerLayer[name]
			if inA && inB && va.Value != vb.Value {
				fmt.Printf("%-18s %-34s differs: %v in A, %v in B (a count that repeats exactly for one seed and one program)\n", w, name, va.Value, vb.Value)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse", worse)
	}
	return nil
}

// exactCounts are the per-layer metrics that repeat bit for bit between
// runs of one seed on one version of the program; compare reports any
// that differ between its two sides.
var exactCounts = []string{
	"partition.edge_cut_ratio", "partition.max_part_ratio",
	"euler.state_longs_peak", "euler.record_bytes", "euler.reused_parts_ratio",
	"bsp.supersteps", "bsp.messages", "bsp.bytes",
}
