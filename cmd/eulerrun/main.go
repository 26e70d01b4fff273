// Command eulerrun finds the Euler circuit of a stored graph with the
// partition-centric distributed algorithm, verifies it, and prints the run
// report: per-level timings, memory state, and BSP metrics.
//
// Usage:
//
//	eulerrun -graph graph.bin -parts 8 -mode proposed -circuit out.txt
//	eulerrun -graph graph.bin -seq          # sequential Hierholzer baseline
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
	"repro/internal/stats"
	"repro/internal/verify"
)

// usageError marks a bad command line: main exits 2 for it and 1 for a
// failed run.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "eulerrun: %v\n", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run is the command with its arguments (without the program name),
// printing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("eulerrun", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "input graph file (required)")
		parts      = fs.Int("parts", 4, "partition count (clamped to the vertex count)")
		modeName   = fs.String("mode", "current", "remote-edge mode: current, dedup, proposed")
		seqRun     = fs.Bool("seq", false, "run the sequential Hierholzer baseline instead")
		circuitOut = fs.String("circuit", "", "write the circuit (one 'from to edge' line per step)")
		seed       = fs.Int64("seed", 1, "partitioner seed")
		model      = fs.Bool("model", true, "include the commodity-cluster cost model")
		noVerify   = fs.Bool("no-verify", false, "skip circuit verification")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if *graphPath == "" {
		fs.Usage()
		return usageError{errors.New("-graph is required")}
	}
	g, err := graph.ReadFile(*graphPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %d vertices, %d undirected edges\n", g.NumVertices(), g.NumEdges())

	if *seqRun {
		start := time.Now()
		steps, err := seq.Hierholzer(g, firstVertexWithEdges(g))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sequential hierholzer: %d steps in %v\n", len(steps), time.Since(start).Round(time.Millisecond))
		return finish(stdout, g, steps, *circuitOut, *noVerify)
	}

	mode, err := euler.ParseMode(*modeName)
	if err != nil {
		return usageError{err}
	}
	if int(int32(*parts)) != *parts {
		return usageError{fmt.Errorf("-parts %d is out of range", *parts)}
	}
	k, err := euler.ClampParts(int32(*parts), g.NumVertices())
	if err != nil {
		return usageError{err}
	}
	a := partition.LDG(g, k, *seed)
	fmt.Fprintf(stdout, "partitions: %s\n", partition.ComputeMetrics(g, a))

	spec := euler.SolveSpec{Assign: &a, Mode: mode}
	if *model {
		spec.Cost = bsp.CommodityCluster()
	}
	steps := make([]graph.Step, 0, g.NumEdges())
	r, _, err := euler.Solve(context.Background(), g, spec, func(s euler.Step) error {
		steps = append(steps, s)
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nrun: mode=%v supersteps=%d shuffle=%.1fMB wall=%v user=%v modeled=%v\n",
		r.Mode, r.BSP.Supersteps, float64(r.BSP.Bytes)/1e6,
		r.Wall.Round(time.Millisecond),
		r.UserComputeTotal().Round(time.Millisecond),
		r.BSP.ModeledTotal.Round(time.Millisecond))
	tb := stats.NewTable("Level", "Active", "Live", "Cum.Longs", "Avg.Longs", "Parked")
	for _, l := range r.Levels {
		tb.AddRow(l.Level, l.Active, l.Live, l.CumulativeLongs, l.AvgLongs, l.ParkedLongs)
	}
	fmt.Fprintln(stdout, tb.String())

	return finish(stdout, g, steps, *circuitOut, *noVerify)
}

func finish(stdout io.Writer, g *graph.Graph, steps []graph.Step, out string, noVerify bool) error {
	if !noVerify {
		if err := verify.Circuit(g, steps); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "circuit verified: %d edges, closed walk\n", len(steps))
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range steps {
		fmt.Fprintf(w, "%d %d %d\n", s.From, s.To, s.Edge)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote circuit to %s\n", out)
	return nil
}

func firstVertexWithEdges(g *graph.Graph) graph.VertexID {
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			return v
		}
	}
	return 0
}
