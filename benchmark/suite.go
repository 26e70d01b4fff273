package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// series is one end-to-end metric of one workload over the runs of a
// suite.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is the distance between the quartiles as a share of the
	// median, 0 for a single run.
	Spread float64 `json:"spread"`
}

func newSeries(unit string, values []float64) series {
	s := series{Unit: unit, Values: values, Median: median(values), Spread: spread(values)}
	if len(values) >= 2 {
		s.Q1, s.Q3 = quartiles(values)
	}
	return s
}

// workloadResults is everything a suite measured on one workload.
type workloadResults struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]series      `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// suiteResults is the file `all` and `calibrate` write and `compare` reads.
type suiteResults struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]workloadResults `json:"workloads"`
}

// suiteMain runs `all` (every workload once, or -n times, plus a traced
// run with -trace; writes out/results.json) or `calibrate` (every workload
// ten times; judges each end-to-end metric's spread against its bound and
// writes out/noise.json).  Run i has seed+i, as in the ten runs the
// benchmark's acceptance makes, so a spread holds the difference between
// seeded inputs as well as the machine's noise.  Every run measures for the
// run_seconds of BENCHMARK.json, the window its bounds were calibrated at.
func suiteMain(mode string, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	calibrate := mode == "calibrate"
	runs, out := 1, "results.json"
	if calibrate {
		runs, out = 10, "noise.json"
	}
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	n := fs.Int("n", runs, "runs per workload, run i with seed+i")
	seed := fs.Int64("seed", 42, "seed of the first run")
	trace := fs.Bool("trace", false, "also make one traced run per workload, for the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}

	results := suiteResults{Seed: *seed, Seconds: bf.RunSeconds, Runs: *n, Workloads: map[string]workloadResults{}}
	for _, w := range workloadNames() {
		wr := workloadResults{EndToEnd: map[string]series{}}
		values := map[string][]float64{}
		for i := 0; i < *n; i++ {
			res, err := runChild(w, *seed+int64(i), bf.RunSeconds, false)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = newSeries(d.Unit, values[d.Name])
		}
		if *trace {
			res, err := runChild(w, *seed, bf.RunSeconds, true)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.PerLayer = res.Metrics
		}
		results.Workloads[w] = wr
		printWorkload(w, wr)
	}

	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	outPath := filepath.Join(root, "benchmark", "out", out)
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)

	var failed int64
	for _, wr := range results.Workloads {
		failed += wr.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if calibrate {
		return judgeNoise(results, bf)
	}
	return nil
}

// runChild runs one workload once in a process of its own, so that peak
// RSS and allocation counts are per workload, and parses the result off
// the last line of its standard output.
func runChild(workload string, seed int64, seconds int, trace bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", traceArg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s, seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s, seed %d: parsing result line: %w", workload, seed, err)
	}
	return res, nil
}

func printWorkload(name string, wr workloadResults) {
	fmt.Printf("\n%s: %d operations attempted, %d failed\n", name, wr.Attempted, wr.Failed)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Printf("  %-34s %16.6g %-8s", d.Name, s.Median, s.Unit)
		if len(s.Values) >= 2 {
			fmt.Printf(" quartiles %.6g .. %.6g, spread %.1f %% of the median, %d runs", s.Q1, s.Q3, 100*s.Spread, len(s.Values))
		}
		fmt.Println()
	}
	for _, d := range perLayer {
		if m, ok := wr.PerLayer[d.Name]; ok {
			fmt.Printf("  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// judgeNoise holds each end-to-end metric's run-to-run spread against its
// bound in BENCHMARK.json, the way the benchmark's acceptance does: a
// spread above the bound fails, one above a third of it is reported.  It
// also prints the bound the issue's rule gives each metric: twice its
// widest spread, and at least 10 %.  setup_s is judged on its medians only,
// so its spread is shown but not failed.
func judgeNoise(results suiteResults, bf *benchmarkFile) error {
	fmt.Println("\nrun-to-run spread against the bounds in BENCHMARK.json:")
	unsteady := 0
	for _, d := range bf.EndToEnd {
		var widest float64
		for _, w := range workloadNames() {
			s := results.Workloads[w].EndToEnd[d.Name].Spread
			widest = math.Max(widest, s)
			verdict := "steady"
			switch {
			case d.Name == "setup_s":
				verdict = "not judged"
			case s > d.Bound:
				verdict = "UNSTEADY: above the bound"
				unsteady++
			case s > d.Bound/3:
				verdict = "loose: above a third of the bound"
			}
			fmt.Printf("  %-18s %-18s spread %5.1f %%  bound %4.1f %%  %s\n", w, d.Name, 100*s, 100*d.Bound, verdict)
		}
		fmt.Printf("  %-18s %-18s widest %5.1f %%: a bound of %.2f\n", "", d.Name, 100*widest, math.Max(0.10, math.Ceil(200*widest)/100))
	}
	if unsteady > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound: lengthen the run or replace the metric", unsteady)
	}
	return nil
}
