package euler

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/verify"
)

// allModes enumerates the remote-edge strategies under test.
var allModes = []Mode{ModeCurrent, ModeDedup, ModeProposed}

// runAndVerify executes the full pipeline (Phases 1–3) and checks the
// resulting circuit, returning the Result for further assertions.
func runAndVerify(t *testing.T, g *graph.Graph, a partition.Assignment, mode Mode) *Result {
	t.Helper()
	res, err := Run(g, a, Config{Mode: mode, Validate: true})
	if err != nil {
		t.Fatalf("Run(mode=%v): %v", mode, err)
	}
	steps, err := res.Registry.CollectCircuit()
	if err != nil {
		t.Fatalf("CollectCircuit(mode=%v): %v", mode, err)
	}
	if err := verify.Circuit(g, steps); err != nil {
		t.Fatalf("verify(mode=%v): %v", mode, err)
	}
	return res
}

func TestSinglePartitionCycle(t *testing.T) {
	g := gen.Cycle(5)
	a := partition.Assignment{Parts: 1, Of: make([]int32, 5)}
	for _, mode := range allModes {
		runAndVerify(t, g, a, mode)
	}
}

func TestSinglePartitionComplete(t *testing.T) {
	g := gen.CompleteOdd(9)
	a := partition.Assignment{Parts: 1, Of: make([]int32, g.NumVertices())}
	runAndVerify(t, g, a, ModeCurrent)
}

func TestPaperFigure1AllModes(t *testing.T) {
	g, part := gen.PaperFigure1()
	a := partition.Assignment{Parts: 4, Of: part}
	for _, mode := range allModes {
		res := runAndVerify(t, g, a, mode)
		// §3.5: 4 partitions need ceil(log2 4)+1 = 3 supersteps.
		if res.Report.BSP.Supersteps != 3 {
			t.Errorf("mode %v: supersteps = %d, want 3", mode, res.Report.BSP.Supersteps)
		}
	}
}

func TestPaperFigure1MergeTree(t *testing.T) {
	// The paper's Fig. 2: P3-P4 has the heaviest meta-edge (2 cut edges:
	// e9,10 and e6,11), so level 0 pairs P3+P4 and P1+P2; level 1 merges
	// the survivors into P4 (largest ID is the parent).
	g, part := gen.PaperFigure1()
	a := partition.Assignment{Parts: 4, Of: part}
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if w := meta.Weight(2, 3); w != 2 {
		t.Fatalf("ω(P3,P4) = %d, want 2", w)
	}
	tree := BuildMergeTree(meta, GreedyMaxWeight)
	if tree.Height() != 2 {
		t.Fatalf("height = %d, want 2", tree.Height())
	}
	if tree.Root() != 3 {
		t.Fatalf("root = P%d, want P4 (index 3)", tree.Root())
	}
	l0 := tree.Levels[0]
	if len(l0) != 2 {
		t.Fatalf("level 0 has %d pairs, want 2", len(l0))
	}
	if l0[0] != (MergePair{Child: 0, Parent: 1}) || l0[1] != (MergePair{Child: 2, Parent: 3}) {
		t.Errorf("level 0 pairs = %+v, want P1+P2->P2 and P3+P4->P4", l0)
	}
	if !strings.Contains(tree.String(), "height 2") {
		t.Errorf("String() missing height: %s", tree.String())
	}
}

func TestTorusPartitions(t *testing.T) {
	g := gen.Torus(12, 12)
	for _, k := range []int32{2, 3, 4, 8} {
		a := partition.LDG(g, k, 1)
		for _, mode := range allModes {
			runAndVerify(t, g, a, mode)
		}
	}
}

func TestRingOfCliquesPartitions(t *testing.T) {
	g := gen.RingOfCliques(8, 5)
	a := partition.Range(g, 4)
	for _, mode := range allModes {
		runAndVerify(t, g, a, mode)
	}
}

func TestEulerianRMATAllPartitioners(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 17))
	for name, a := range map[string]partition.Assignment{
		"ldg":   partition.LDG(g, 4, 1),
		"hash":  partition.Hash(g, 4),
		"range": partition.Range(g, 4),
	} {
		for _, mode := range allModes {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				runAndVerify(t, g, a, mode)
			})
		}
	}
}

func TestSuperstepCount(t *testing.T) {
	// §3.5 and Sec. 4.3: 2, 3, 3, 4 supersteps for 2, 3, 4, 8 partitions.
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 23))
	want := map[int32]int{2: 2, 3: 3, 4: 3, 8: 4}
	for k, supersteps := range want {
		a := partition.LDG(g, k, 1)
		res := runAndVerify(t, g, a, ModeCurrent)
		if got := res.Report.BSP.Supersteps; got != supersteps {
			t.Errorf("k=%d: supersteps = %d, want %d", k, got, supersteps)
		}
	}
}

func TestRandomEulerianManySeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomEulerian(60, 6, 10, rng)
		k := int32(2 + seed%4)
		a := partition.LDG(g, k, seed)
		for _, mode := range allModes {
			runAndVerify(t, g, a, mode)
		}
	}
}

func TestRejectNonEulerian(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.VertexID{{0, 1}, {1, 2}})
	a := partition.Assignment{Parts: 1, Of: make([]int32, 3)}
	if _, err := Run(g, a, Config{}); err == nil {
		t.Fatal("non-Eulerian input should be rejected")
	}
}

func TestRejectEmptyGraph(t *testing.T) {
	g := graph.FromEdges(3, nil)
	a := partition.Assignment{Parts: 1, Of: make([]int32, 3)}
	if _, err := Run(g, a, Config{}); err == nil {
		t.Fatal("edgeless input should be rejected")
	}
}

func TestRejectDisconnected(t *testing.T) {
	// Two disjoint triangles: Eulerian degrees but two components.
	g := graph.FromEdges(6, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
	})
	a := partition.Assignment{Parts: 2, Of: []int32{0, 0, 0, 1, 1, 1}}
	res, err := Run(g, a, Config{Validate: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, err = res.Registry.CollectCircuit()
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("err = %v, want disconnected-input error", err)
	}
}

func TestModesAgreeOnLongsShape(t *testing.T) {
	// Section 5's headline: the proposed mode's level-0 cumulative state
	// is significantly smaller than current mode's, because remote-edge
	// copies are halved (the paper reports 43%).
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(11, 29))
	a := partition.LDG(g, 8, 1)
	cur := runAndVerify(t, g, a, ModeCurrent)
	prop := runAndVerify(t, g, a, ModeProposed)
	c0 := cur.Report.Levels[0].CumulativeLongs
	p0 := prop.Report.Levels[0].CumulativeLongs
	if p0 >= c0 {
		t.Errorf("proposed level-0 longs %d not below current %d", p0, c0)
	}
	// The average active-partition state at intermediate levels must also
	// shrink (the paper reports 50–75%).
	for l := 1; l < len(cur.Report.Levels)-1; l++ {
		if prop.Report.Levels[l].AvgLongs >= cur.Report.Levels[l].AvgLongs {
			t.Errorf("level %d: proposed avg %d not below current avg %d",
				l, prop.Report.Levels[l].AvgLongs, cur.Report.Levels[l].AvgLongs)
		}
	}
}

func TestReportShape(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 31))
	a := partition.LDG(g, 4, 1)
	res := runAndVerify(t, g, a, ModeCurrent)
	r := res.Report
	if r.TreeHeight != 2 {
		t.Fatalf("tree height = %d, want 2", r.TreeHeight)
	}
	// Level 0 has 4 active partitions, level 1 has 2, level 2 has 1.
	wantActive := []int{4, 2, 1}
	for l, want := range wantActive {
		if got := r.Levels[l].Active; got != want {
			t.Errorf("level %d active = %d, want %d", l, got, want)
		}
		if lvlParts := r.PartsAt(l); len(lvlParts) != want {
			t.Errorf("PartsAt(%d) = %d entries, want %d", l, len(lvlParts), want)
		}
	}
	for _, p := range r.Parts {
		if p.LongsAtStart <= 0 {
			t.Errorf("L%d P%d: LongsAtStart = %d", p.Level, p.Part, p.LongsAtStart)
		}
		if p.Stats.Expected() <= 0 {
			t.Errorf("L%d P%d: empty Phase 1 stats", p.Level, p.Part)
		}
	}
	if r.UserComputeTotal() <= 0 {
		t.Error("zero user compute total")
	}
	ideal := IdealSeries(r.Levels)
	if len(ideal) != len(r.Levels) || ideal[0].AvgLongs != r.Levels[0].AvgLongs {
		t.Errorf("IdealSeries malformed: %+v", ideal)
	}
	for _, l := range ideal[1:] {
		if l.AvgLongs != ideal[0].AvgLongs {
			t.Error("ideal average should stay constant")
		}
	}
}

// TestLedgerCoversMerge pins the Fig. 6 ledger around Phase 2: every merge
// parent books its own-state pass as CopySink, and the four user-time
// terms are disjoint slices of the worker's Compute call, so their total
// can never exceed the engine's measured compute.  What share of compute
// they cover is logged, not gated (it is a timing).
func TestLedgerCoversMerge(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: 50_000, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: 42})
	a := partition.LDG(g, 8, 1)
	for _, mode := range allModes {
		res, err := Run(g, a, Config{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for _, p := range res.Report.Parts {
			if p.Level > 0 && p.CopySink <= 0 {
				t.Errorf("mode %v: L%d P%d merged without a CopySink time", mode, p.Level, p.Part)
			}
		}
		user, compute := res.Report.UserComputeTotal(), res.Report.BSP.SumCompute
		if user > compute {
			t.Errorf("mode %v: user time %v exceeds measured compute %v (a term is double-counted)", mode, user, compute)
		}
		t.Logf("mode %v: user time %v is %.1f%% of compute %v", mode, user, 100*float64(user)/float64(compute), compute)
	}
}

func TestMatchingStrategiesAllCorrect(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 37))
	a := partition.LDG(g, 8, 1)
	for name, strat := range map[string]MatchStrategy{
		"greedy-max": GreedyMaxWeight,
		"greedy-min": GreedyMinWeight,
		"random":     RandomMatch(99),
	} {
		t.Run(name, func(t *testing.T) {
			res, err := Run(g, a, Config{Strategy: strat, Validate: true})
			if err != nil {
				t.Fatal(err)
			}
			steps, err := res.Registry.CollectCircuit()
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Circuit(g, steps); err != nil {
				t.Fatal(err)
			}
		})
	}
}
