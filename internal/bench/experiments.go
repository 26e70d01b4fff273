package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/seq"
	"repro/internal/stats"
)

// Table1 reproduces Table 1: |V|, |E| (bi-directed), Σ|B_i|, partition
// count, remote-edge fraction and peak vertex imbalance for the five
// evaluation graphs, plus the Eulerizer's extra-edge percentage quoted in
// Sec. 4.2 (≈5%).
func Table1(o Options) (string, error) {
	tb := stats.NewTable("Graph", "|V|", "|E|", "ΣB", "Parts", "Remote%", "Imbal%", "Extra%")
	for _, cfg := range PaperConfigs {
		g, a, est := cfg.Build(o)
		m := partition.ComputeMetrics(g, a)
		tb.AddRow(cfg.Name, m.Vertices, m.DirectedEdges, m.BoundaryVertices, m.Parts,
			fmt.Sprintf("%.0f", 100*m.RemoteFraction),
			fmt.Sprintf("%.0f", 100*m.Imbalance),
			fmt.Sprintf("%.1f", est.ExtraPercent))
	}
	return tb.String(), nil
}

// Fig2MergeTree prints the merge tree for the paper's 4-partition example
// and for the scaled G40/P8 configuration.
func Fig2MergeTree(o Options) (string, error) {
	var b strings.Builder
	g, part := gen.PaperFigure1()
	a := partition.Assignment{Parts: 4, Of: part}
	meta, err := euler.BuildMetaGraph(g, a)
	if err != nil {
		return "", err
	}
	tree := euler.BuildMergeTree(meta, euler.GreedyMaxWeight)
	fmt.Fprintf(&b, "paper Fig. 1 example (4 partitions):\n%s\n", tree)

	cfg, _ := ConfigByName("G40/P8")
	g8, a8, _ := cfg.Build(o)
	meta8, err := euler.BuildMetaGraph(g8, a8)
	if err != nil {
		return "", err
	}
	tree8 := euler.BuildMergeTree(meta8, euler.GreedyMaxWeight)
	fmt.Fprintf(&b, "G40/P8 at scale %.3f:\n%s", o.ScaleFactor, tree8)
	return b.String(), nil
}

// Fig3Trace prints the textual BSP stage trace for G40/P4, the analogue of
// the paper's Spark DAG screenshot.
func Fig3Trace(o Options) (string, error) {
	cfg, _ := ConfigByName("G40/P4")
	g, a, _ := cfg.Build(o)
	res, err := runConfig(g, a, euler.ModeCurrent, o)
	if err != nil {
		return "", err
	}
	return bsp.FormatTrace(res.Report.BSP), nil
}

// Fig4Degrees reproduces the degree-distribution comparison: the paper's
// 10M-vertex RMAT graph before and after Eulerisation, log-binned.  The
// Eulerizer shifts odd-degree vertices up by one without changing the
// power-law shape.
func Fig4Degrees(o Options) (string, error) {
	n := int64(10_000_000 * o.ScaleFactor)
	if n < 1024 {
		n = 1024
	}
	p := gen.RMATParams{Vertices: n, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: o.Seed}
	raw := gen.RMAT(p)
	eul, est := gen.Eulerize(raw)

	rawHist, eulHist := stats.NewHistogram(), stats.NewHistogram()
	for v := int64(0); v < raw.NumVertices(); v++ {
		rawHist.Add(raw.Degree(v))
	}
	for v := int64(0); v < eul.NumVertices(); v++ {
		eulHist.Add(eul.Degree(v))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "RMAT %d vertices, %d edges; Eulerised +%d edges (%.1f%% extra)\n",
		raw.NumVertices(), raw.NumEdges(), est.AddedEdges, est.ExtraPercent)
	tb := stats.NewTable("Degree bucket", "RMAT vertices", "Eulerian vertices")
	eulBins := map[[2]int64]int64{}
	for _, bk := range eulHist.LogBin() {
		eulBins[[2]int64{bk.Lo, bk.Hi}] = bk.Count
	}
	for _, bk := range rawHist.LogBin() {
		label := fmt.Sprintf("[%d,%d]", bk.Lo, bk.Hi)
		tb.AddRow(label, bk.Count, eulBins[[2]int64{bk.Lo, bk.Hi}])
	}
	b.WriteString(tb.String())
	return b.String(), nil
}

// Fig5Times reproduces the weak/strong-scaling comparison: total (modeled
// platform) time and user compute time per graph configuration.  The paper
// observes user compute at roughly half of total, both growing with graph
// size despite constant per-VM load — the same shape this table shows.
func Fig5Times(o Options) (string, error) {
	tb := stats.NewTable("Graph", "Total(model)", "UserCompute", "User/Total%", "Supersteps", "ShuffleMB")
	for _, cfg := range PaperConfigs {
		g, a, _ := cfg.Build(o)
		res, err := runConfig(g, a, euler.ModeCurrent, o)
		if err != nil {
			return "", fmt.Errorf("%s: %w", cfg.Name, err)
		}
		user := res.Report.UserComputeTotal()
		total := res.Report.BSP.ModeledTotal
		ratio := 0.0
		if total > 0 {
			ratio = 100 * float64(user) / float64(total)
		}
		tb.AddRow(cfg.Name,
			total.Round(time.Millisecond),
			user.Round(time.Millisecond),
			fmt.Sprintf("%.0f", ratio),
			res.Report.BSP.Supersteps,
			fmt.Sprintf("%.1f", float64(res.Report.BSP.Bytes)/1e6))
	}
	return tb.String(), nil
}

// Fig6Split reproduces the stacked user-time split per partition and level
// for G50/P8: copy source, copy sink, create partition object, Phase 1
// tour.  The paper observes object construction dominating at level 0 and
// Phase 1 taking over at the top levels.
func Fig6Split(o Options) (string, error) {
	cfg, _ := ConfigByName("G50/P8")
	g, a, _ := cfg.Build(o)
	res, err := runConfig(g, a, euler.ModeCurrent, o)
	if err != nil {
		return "", err
	}
	tb := stats.NewTable("Level", "Part", "CopySrc", "CopySink", "CreateObj", "Phase1", "Phase1%")
	for _, p := range res.Report.Parts {
		total := p.UserTime()
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Phase1) / float64(total)
		}
		tb.AddRow(p.Level, fmt.Sprintf("P%d", p.Part),
			p.CopySrc.Round(time.Microsecond),
			p.CopySink.Round(time.Microsecond),
			p.CreateObj.Round(time.Microsecond),
			p.Phase1.Round(time.Microsecond),
			fmt.Sprintf("%.0f", share))
	}
	return tb.String(), nil
}

// Fig7Complexity reproduces the expected-vs-observed Phase 1 scatter for
// G40/P8 and G50/P8: x = O(|B|+|I|+|L|) per partition per level, y =
// observed Phase 1 time.  The paper finds the observed times tracking the
// expected complexity linearly; the fitted trendline and R² quantify that
// here.
func Fig7Complexity(o Options) (string, error) {
	var b strings.Builder
	for _, name := range []string{"G40/P8", "G50/P8"} {
		cfg, _ := ConfigByName(name)
		g, a, _ := cfg.Build(o)
		// Sequential workers: the paper's per-partition Phase 1 times come
		// from dedicated VMs, so interference-free timing is the honest
		// comparison.
		res, err := euler.Run(g, a, euler.Config{Mode: euler.ModeCurrent, Cost: o.cost(), Sequential: true})
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		var xs, ys []float64
		tb := stats.NewTable("Level", "Part", "B+I+L", "Phase1(µs)")
		for _, p := range res.Report.Parts {
			x := float64(p.Stats.Expected())
			y := float64(p.Phase1.Microseconds())
			xs = append(xs, x)
			ys = append(ys, y)
			tb.AddRow(p.Level, fmt.Sprintf("P%d", p.Part), int64(x), int64(y))
		}
		fit := stats.FitTrendline(xs, ys)
		fmt.Fprintf(&b, "%s: %d points, trendline y = %.3f + %.6f·x (µs), R² = %.3f\n%s\n",
			name, fit.N, fit.Intercept, fit.Slope, fit.R2, tb.String())
	}
	return b.String(), nil
}

// Fig8Memory reproduces the per-level memory state for G40/P8 and G50/P8:
// cumulative and average Longs for the current approach (measured), the
// ideal synthetic series, and the proposed Sec. 5 heuristics (measured —
// the paper only models them).  The drop percentages the paper quotes
// (43% at level 0, 50–75% average at intermediate levels) are printed.
func Fig8Memory(o Options) (string, error) {
	var b strings.Builder
	for _, name := range []string{"G40/P8", "G50/P8"} {
		cfg, _ := ConfigByName(name)
		g, a, _ := cfg.Build(o)
		cur, err := runConfig(g, a, euler.ModeCurrent, o)
		if err != nil {
			return "", fmt.Errorf("%s current: %w", name, err)
		}
		prop, err := runConfig(g, a, euler.ModeProposed, o)
		if err != nil {
			return "", fmt.Errorf("%s proposed: %w", name, err)
		}
		ideal := euler.IdealSeries(cur.Report.Levels)
		tb := stats.NewTable("Level", "Live",
			"Cum.Current", "Avg.Current",
			"Cum.Ideal", "Avg.Ideal",
			"Cum.Proposed", "Avg.Proposed", "Parked")
		for i, lc := range cur.Report.Levels {
			lp := prop.Report.Levels[i]
			tb.AddRow(lc.Level, lc.Live,
				lc.CumulativeLongs, lc.AvgLongs,
				ideal[i].CumulativeLongs, ideal[i].AvgLongs,
				lp.CumulativeLongs, lp.AvgLongs, lp.ParkedLongs)
		}
		fmt.Fprintf(&b, "%s (Longs per level):\n%s", name, tb.String())
		c0, p0 := cur.Report.Levels[0].CumulativeLongs, prop.Report.Levels[0].CumulativeLongs
		fmt.Fprintf(&b, "level-0 cumulative reduction: %.0f%% (paper: 43%%)\n",
			100*(1-float64(p0)/float64(c0)))
		for i := 1; i < len(cur.Report.Levels)-1; i++ {
			ca, pa := cur.Report.Levels[i].AvgLongs, prop.Report.Levels[i].AvgLongs
			fmt.Fprintf(&b, "level-%d average reduction:    %.0f%% (paper: 50–75%%)\n",
				i, 100*(1-float64(pa)/float64(ca)))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Fig9Composition reproduces the per-partition vertex/edge composition for
// G50/P8: odd-degree boundary, even-degree boundary, even-degree internal
// vertex counts, and stored remote edges, per level.  The paper observes
// remote edges at ≈7× the vertex count, dominating memory.
func Fig9Composition(o Options) (string, error) {
	cfg, _ := ConfigByName("G50/P8")
	g, a, _ := cfg.Build(o)
	res, err := runConfig(g, a, euler.ModeCurrent, o)
	if err != nil {
		return "", err
	}
	tb := stats.NewTable("Level", "Part", "OB", "EB", "EvenInternal", "RemoteEdges", "R/V ratio")
	for _, p := range res.Report.Parts {
		verts := p.Stats.Boundary + p.Stats.Internal
		ratio := 0.0
		if verts > 0 {
			ratio = float64(p.RemoteEdges) / float64(verts)
		}
		tb.AddRow(p.Level, fmt.Sprintf("P%d", p.Part),
			p.Stats.OB, p.Stats.EB, p.Stats.Internal, p.RemoteEdges,
			fmt.Sprintf("%.1f", ratio))
	}
	return tb.String(), nil
}

// CoordinationCost contrasts the partition-centric superstep counts
// (⌈log n⌉+1, Sec. 3.5: 2, 3, 3, 4 for 2, 3, 4, 8 partitions) with the
// Makki vertex-centric baseline's O(|E|) supersteps on a small graph.
func CoordinationCost(o Options) (string, error) {
	var b strings.Builder
	gSmall, _ := gen.EulerianRMAT(gen.DefaultRMAT(10, o.Seed))
	tb := stats.NewTable("Algorithm", "Parts", "|E|", "Supersteps", "Messages")
	for _, k := range []int32{2, 3, 4, 8} {
		a := partition.LDG(gSmall, k, o.Seed)
		res, err := runConfig(gSmall, a, euler.ModeCurrent, o)
		if err != nil {
			return "", err
		}
		tb.AddRow("partition-centric", k, gSmall.NumEdges(),
			res.Report.BSP.Supersteps, res.Report.BSP.Messages)
	}
	// Makki on a smaller graph: its superstep count is O(|E|) and the BSP
	// barrier cost makes larger inputs pointless to wait for.
	gTiny, _ := gen.EulerianRMAT(gen.DefaultRMAT(7, o.Seed))
	a := partition.LDG(gTiny, 4, o.Seed)
	_, m, err := seq.Makki(gTiny, a, o.cost())
	if err != nil {
		return "", err
	}
	tb.AddRow("makki (vertex-centric)", 4, gTiny.NumEdges(), m.Supersteps, m.Messages)
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\npartition-centric supersteps follow ceil(log2 n)+1; the vertex-centric walker needs ~2|E| supersteps.\n")
	return b.String(), nil
}

// Ablations quantifies the engine's design choices: merge-pair
// matching strategy (greedy max vs min vs random), partitioner quality
// (LDG vs hash), and the two Section 5 heuristics toggled independently.
func Ablations(o Options) (string, error) {
	cfg, _ := ConfigByName("G40/P8")
	g, a, _ := cfg.Build(o)
	var b strings.Builder

	// Matching strategy: locals converted at level 0 (more is better —
	// the greedy intuition of Alg. 2).
	tb := stats.NewTable("Matching", "L0 meta-weight", "RootLongs", "ShuffleMB")
	for _, s := range []struct {
		name  string
		strat euler.MatchStrategy
	}{
		{"greedy-max (paper)", euler.GreedyMaxWeight},
		{"greedy-min", euler.GreedyMinWeight},
		{"random", euler.RandomMatch(o.Seed)},
	} {
		res, err := euler.Run(g, a, euler.Config{Strategy: s.strat, Cost: o.cost()})
		if err != nil {
			return "", err
		}
		meta, err := euler.BuildMetaGraph(g, a)
		if err != nil {
			return "", err
		}
		var w0 int64
		for _, p := range res.Tree.Levels[0] {
			w0 += meta.Weight(p.Child, p.Parent)
		}
		last := res.Report.Levels[len(res.Report.Levels)-1]
		tb.AddRow(s.name, w0, last.CumulativeLongs,
			fmt.Sprintf("%.1f", float64(res.Report.BSP.Bytes)/1e6))
	}
	b.WriteString("matching strategy (G40/P8):\n" + tb.String() + "\n")

	// Partitioner quality.
	tb2 := stats.NewTable("Partitioner", "Remote%", "ΣB", "L0 Longs", "ShuffleMB")
	for _, pr := range []struct {
		name string
		a    partition.Assignment
	}{
		{"ldg (stand-in for ParHIP)", a},
		{"hash", partition.Hash(g, cfg.Parts)},
	} {
		m := partition.ComputeMetrics(g, pr.a)
		res, err := euler.Run(g, pr.a, euler.Config{Cost: o.cost()})
		if err != nil {
			return "", err
		}
		tb2.AddRow(pr.name, fmt.Sprintf("%.0f", 100*m.RemoteFraction), m.BoundaryVertices,
			res.Report.Levels[0].CumulativeLongs,
			fmt.Sprintf("%.1f", float64(res.Report.BSP.Bytes)/1e6))
	}
	b.WriteString("partitioner (G40/P8):\n" + tb2.String() + "\n")

	// Section 5 heuristics, mode by mode.
	tb3 := stats.NewTable("Mode", "L0 Cum.Longs", "PeakAvgLongs", "ShuffleMB")
	for _, mode := range []euler.Mode{euler.ModeCurrent, euler.ModeDedup, euler.ModeProposed} {
		res, err := euler.Run(g, a, euler.Config{Mode: mode, Cost: o.cost()})
		if err != nil {
			return "", err
		}
		var peak int64
		for _, l := range res.Report.Levels {
			if l.AvgLongs > peak {
				peak = l.AvgLongs
			}
		}
		tb3.AddRow(mode.String(), res.Report.Levels[0].CumulativeLongs, peak,
			fmt.Sprintf("%.1f", float64(res.Report.BSP.Bytes)/1e6))
	}
	b.WriteString("Section 5 heuristics (G40/P8):\n" + tb3.String())
	return b.String(), nil
}
