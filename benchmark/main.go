// Command benchmark is the repository's benchmark: six workloads, five
// end-to-end metrics each, and a per-layer ledger measured from outside the
// program.  BENCHMARK.json at the repository root names the command, the
// workloads and the metrics; README.md in this directory says how to run,
// compare and calibrate.
//
//	bash benchmark/run.sh --workload rmat-solve --seed 42 --seconds 10 --trace 0
//	bash benchmark/run.sh all -trace
//	bash benchmark/run.sh calibrate -n 10
//	bash benchmark/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads lists the workloads in the order `all` runs them; later issues
// cite these names.
var workloads = []struct {
	name string
	run  func(runConfig) (result, error)
}{
	{"rmat-solve", func(cfg runConfig) (result, error) { return runLibrary(newRMATSolve(), cfg) }},
	{"torus-solve", func(cfg runConfig) (result, error) { return runLibrary(newTorusSolve(), cfg) }},
	{"torus-paged", func(cfg runConfig) (result, error) { return runLibrary(&pagedSolve{}, cfg) }},
	{"cliques-delta", func(cfg runConfig) (result, error) { return runLibrary(&deltaSolve{}, cfg) }},
	{"cluster-loopback", func(cfg runConfig) (result, error) { return runLibrary(&clusterSolve{}, cfg) }},
	{"serve-mixed", runServe},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sizing   sizing
	workDir  string // scratch space of this run, removed when it ends
	outDir   string // where trace files go
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all", "calibrate":
			exit(suiteMain(os.Args[1], os.Args[2:]))
		case "compare":
			exit(compareMain(os.Args[2:]))
		}
	}
	exit(runMain(os.Args[1:]))
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runMain is the command BENCHMARK.json names: one run of one workload,
// whose last line of standard output is the result as one JSON object.
func runMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
	seed := fs.Int64("seed", 42, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced operations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace != 0,
		sizing:   fullSize,
		workDir:  filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		outDir:   filepath.Join(root, "benchmark", "out"),
	}
	// Every run uses min(nproc, 4) processors, the default GOGC and no
	// memory limit, and keeps every file it writes, temporary ones
	// included, inside its scratch directory.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if err := os.Setenv("TMPDIR", cfg.workDir); err != nil {
		return err
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run executes one workload in this process.
func run(cfg runConfig) (result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.workDir)
	for _, w := range workloads {
		if w.name == cfg.workload {
			return w.run(cfg)
		}
	}
	return result{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json — from the working directory, which is either the root
// itself or this package's directory.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}
