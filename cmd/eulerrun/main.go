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
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/seq"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/verify"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "input graph file (required)")
		parts      = flag.Int("parts", 4, "partition count")
		modeName   = flag.String("mode", "current", "remote-edge mode: current, dedup, proposed")
		seqRun     = flag.Bool("seq", false, "run the sequential Hierholzer baseline instead")
		circuitOut = flag.String("circuit", "", "write the circuit (one 'from to edge' line per step)")
		spillDir   = flag.String("spill", "", "spill path bodies to this directory")
		saveCkpt   = flag.String("save-checkpoint", "", "after Phases 1-2, save the registry checkpoint here (requires -spill)")
		fromCkpt   = flag.String("from-checkpoint", "", "skip Phases 1-2: run Phase 3 from this checkpoint (requires -spill)")
		seed       = flag.Int64("seed", 1, "partitioner seed")
		model      = flag.Bool("model", true, "include the commodity-cluster cost model")
		noVerify   = flag.Bool("no-verify", false, "skip circuit verification")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "eulerrun: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	g, err := graph.ReadFile(*graphPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d undirected edges\n", g.NumVertices(), g.NumEdges())

	if *fromCkpt != "" {
		if *spillDir == "" {
			fatal(fmt.Errorf("-from-checkpoint requires -spill"))
		}
		runPhase3Only(g, *fromCkpt, *spillDir, *circuitOut, *noVerify)
		return
	}

	if *seqRun {
		start := time.Now()
		steps, err := seq.Hierholzer(g, firstVertexWithEdges(g))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential hierholzer: %d steps in %v\n", len(steps), time.Since(start).Round(time.Millisecond))
		finish(g, steps, *circuitOut, *noVerify)
		return
	}

	mode, err := euler.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eulerrun: %v\n", err)
		os.Exit(2)
	}

	cfg := euler.Config{Mode: mode}
	if *model {
		cfg.Cost = bsp.CommodityCluster()
	}
	if *spillDir != "" {
		ds, err := spill.NewDiskStore(*spillDir + "/eulerrun-spill.log")
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		cfg.Store = ds
	}

	a := partition.LDG(g, int32(*parts), *seed)
	fmt.Printf("partitions: %s\n", partition.ComputeMetrics(g, a))

	res, err := euler.Run(g, a, cfg)
	if err != nil {
		fatal(err)
	}
	if *saveCkpt != "" {
		if *spillDir == "" {
			fatal(fmt.Errorf("-save-checkpoint requires -spill (bodies must be on disk)"))
		}
		f, err := os.Create(*saveCkpt)
		if err != nil {
			fatal(err)
		}
		if err := res.Registry.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint saved to %s (resume with -from-checkpoint)\n", *saveCkpt)
	}
	steps, err := res.Registry.CollectCircuit()
	if err != nil {
		fatal(err)
	}

	r := res.Report
	fmt.Printf("\nrun: mode=%v supersteps=%d shuffle=%.1fMB wall=%v user=%v modeled=%v\n",
		r.Mode, r.BSP.Supersteps, float64(r.BSP.Bytes)/1e6,
		r.Wall.Round(time.Millisecond),
		r.UserComputeTotal().Round(time.Millisecond),
		r.BSP.ModeledTotal.Round(time.Millisecond))
	tb := stats.NewTable("Level", "Active", "Live", "Cum.Longs", "Avg.Longs", "Parked")
	for _, l := range r.Levels {
		tb.AddRow(l.Level, l.Active, l.Live, l.CumulativeLongs, l.AvgLongs, l.ParkedLongs)
	}
	fmt.Println(tb.String())

	finish(g, steps, *circuitOut, *noVerify)
}

func finish(g *graph.Graph, steps []graph.Step, out string, noVerify bool) {
	if !noVerify {
		if err := verify.Circuit(g, steps); err != nil {
			fatal(err)
		}
		fmt.Printf("circuit verified: %d edges, closed walk\n", len(steps))
	}
	if out == "" {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range steps {
		fmt.Fprintf(w, "%d %d %d\n", s.From, s.To, s.Edge)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote circuit to %s\n", out)
}

// runPhase3Only reconstructs the circuit from a saved checkpoint and the
// reopened spill store — the paper's "book-keeping persisted to disk"
// workflow with Phase 3 as a separate process.
func runPhase3Only(g *graph.Graph, ckptPath, spillDir, circuitOut string, noVerify bool) {
	ds, err := spill.OpenDiskStore(spillDir + "/eulerrun-spill.log")
	if err != nil {
		fatal(err)
	}
	defer ds.Close()
	f, err := os.Open(ckptPath)
	if err != nil {
		fatal(err)
	}
	reg, err := euler.LoadRegistry(f, ds)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("checkpoint: %d paths/cycles, master %d\n", reg.NumPaths(), reg.Master())
	steps, err := reg.CollectCircuit()
	if err != nil {
		fatal(err)
	}
	finish(g, steps, circuitOut, noVerify)
}

func firstVertexWithEdges(g *graph.Graph) graph.VertexID {
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v) > 0 {
			return v
		}
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "eulerrun: %v\n", err)
	os.Exit(1)
}
