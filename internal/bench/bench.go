// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Sec. 4–5) as text reports, at a
// configurable scale factor relative to the paper's 20M–50M-vertex inputs.
// Each experiment builds its workload with the generators, runs the
// distributed algorithm on the BSP engine, and renders the same rows or
// series the paper plots.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/verify"
)

// Options configures the harness.
type Options struct {
	// ScaleFactor shrinks the paper's graph sizes; 0.01 maps G50's 49M
	// vertices to 490k, which runs each experiment in seconds on a laptop.
	ScaleFactor float64
	// Seed drives every generator.
	Seed int64
	// Cost is the platform model for modeled-time figures; the zero value
	// selects the commodity-cluster calibration.
	Cost bsp.CostModel
	// Verify re-checks the produced circuit of every run (slower).
	Verify bool
}

// DefaultOptions returns the standard harness configuration.
func DefaultOptions() Options {
	return Options{ScaleFactor: 0.01, Seed: 42, Cost: bsp.CommodityCluster()}
}

func (o Options) cost() bsp.CostModel {
	if o.Cost == (bsp.CostModel{}) {
		return bsp.CommodityCluster()
	}
	return o.Cost
}

// GraphConfig names one of the paper's Table 1 inputs.
type GraphConfig struct {
	Name     string
	Vertices int64 // paper-scale vertex count
	Parts    int32
}

// PaperConfigs are the five evaluation graphs of Table 1.
var PaperConfigs = []GraphConfig{
	{Name: "G20/P2", Vertices: 20_000_000, Parts: 2},
	{Name: "G30/P3", Vertices: 30_000_000, Parts: 3},
	{Name: "G40/P4", Vertices: 40_000_000, Parts: 4},
	{Name: "G40/P8", Vertices: 40_000_000, Parts: 8},
	{Name: "G50/P8", Vertices: 49_000_000, Parts: 8},
}

// ConfigByName returns the named paper configuration.
func ConfigByName(name string) (GraphConfig, error) {
	for _, c := range PaperConfigs {
		if c.Name == name {
			return c, nil
		}
	}
	return GraphConfig{}, fmt.Errorf("bench: unknown graph config %q", name)
}

// Build materialises the configuration at the option scale: RMAT at the
// scaled vertex count, largest component, Eulerised (Sec. 4.2), then
// LDG-partitioned into Parts.
func (c GraphConfig) Build(o Options) (*graph.Graph, partition.Assignment, gen.EulerizeStats) {
	n := int64(float64(c.Vertices) * o.ScaleFactor)
	if n < 1024 {
		n = 1024
	}
	p := gen.RMATParams{Vertices: n, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: o.Seed}
	g, stats := gen.EulerianRMAT(p)
	a := partition.LDG(g, c.Parts, o.Seed)
	return g, a, stats
}

// runConfig executes the distributed pipeline on one configuration.
func runConfig(g *graph.Graph, a partition.Assignment, mode euler.Mode, o Options) (*euler.Result, error) {
	res, err := euler.Run(g, a, euler.Config{Mode: mode, Cost: o.cost()})
	if err != nil {
		return nil, err
	}
	if o.Verify {
		steps, err := res.Registry.CollectCircuit()
		if err != nil {
			return nil, err
		}
		if err := verify.Circuit(g, steps); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Experiment is one regenerable artefact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (string, error)
}

// Experiments lists every artefact the harness reproduces, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: characteristics of input Eulerian graphs", Run: Table1},
		{ID: "fig2", Title: "Fig. 2: merge tree for 4 partitions", Run: Fig2MergeTree},
		{ID: "fig3", Title: "Fig. 3: BSP stage trace (Spark DAG analogue)", Run: Fig3Trace},
		{ID: "fig4", Title: "Fig. 4: degree distribution, RMAT vs Eulerian", Run: Fig4Degrees},
		{ID: "fig5", Title: "Fig. 5: total and user compute times per graph", Run: Fig5Times},
		{ID: "fig6", Title: "Fig. 6: user-time split per partition and level (G50/P8)", Run: Fig6Split},
		{ID: "fig7", Title: "Fig. 7: expected vs observed Phase 1 time", Run: Fig7Complexity},
		{ID: "fig8", Title: "Fig. 8: memory state per level (current/ideal/proposed)", Run: Fig8Memory},
		{ID: "fig9", Title: "Fig. 9: vertex types and remote edges per partition (G50/P8)", Run: Fig9Composition},
		{ID: "coord", Title: "Sec. 3.5: coordination cost vs the Makki baseline", Run: CoordinationCost},
		{ID: "ablation", Title: "Ablations: matching strategy, partitioner, Sec. 5 heuristics", Run: Ablations},
	}
}

// RunByID runs one experiment, or all of them for id == "all".
func RunByID(id string, o Options) (string, error) {
	if id == "all" {
		var b strings.Builder
		for _, e := range Experiments() {
			out, err := e.Run(o)
			if err != nil {
				return b.String(), fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Fprintf(&b, "=== %s — %s ===\n%s\n", e.ID, e.Title, out)
		}
		return b.String(), nil
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(o)
		}
	}
	known := make([]string, 0)
	for _, e := range Experiments() {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return "", fmt.Errorf("bench: unknown experiment %q (known: %s, all)", id, strings.Join(known, ", "))
}
