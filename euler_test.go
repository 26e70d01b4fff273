package euler

import (
	"math/rand"
	"strings"
	"testing"
)

func TestFindCircuitTorus(t *testing.T) {
	g := NewTorus(10, 10)
	c, err := FindCircuit(g, WithPartitions(4), WithValidation())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, c.Steps); err != nil {
		t.Fatal(err)
	}
	if c.Report == nil || c.Report.BSP.Supersteps != 3 {
		t.Fatalf("report = %+v", c.Report)
	}
}

func TestFindCircuitAllModes(t *testing.T) {
	g, extra := NewEulerianRMAT(4000, 5, 7)
	if extra <= 0 {
		t.Fatalf("extra%% = %f", extra)
	}
	if err := CheckInput(g); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeCurrent, ModeDedup, ModeProposed} {
		c, err := FindCircuit(g, WithPartitions(8), WithMode(mode), WithValidation())
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if err := Verify(g, c.Steps); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestFindCircuitStream(t *testing.T) {
	g := NewRingOfCliques(6, 5)
	var count int64
	report, err := FindCircuitStream(g, func(Step) error {
		count++
		return nil
	}, WithPartitions(3))
	if err != nil {
		t.Fatal(err)
	}
	if count != g.NumEdges() {
		t.Fatalf("streamed %d steps for %d edges", count, g.NumEdges())
	}
	if report.UserComputeTotal() <= 0 {
		t.Fatal("empty report")
	}
}

func TestFindCircuitCostModel(t *testing.T) {
	g := NewTorus(8, 8)
	c, err := FindCircuit(g, WithPartitions(4), WithCommodityCluster())
	if err != nil {
		t.Fatal(err)
	}
	if c.Report.BSP.ModeledTotal <= c.Report.BSP.CriticalPath {
		t.Fatal("cost model added no overhead")
	}
}

func TestFindCircuitExplicitAssignment(t *testing.T) {
	g := NewTorus(6, 6)
	a := PartitionHash(g, 3)
	c, err := FindCircuit(g, WithAssignment(a), WithValidation())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, c.Steps); err != nil {
		t.Fatal(err)
	}
}

func TestFindCircuitRejectsBadInput(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	path := b.Build()
	if _, err := FindCircuit(path); err == nil {
		t.Fatal("non-Eulerian accepted")
	}
	if err := CheckInput(path); err == nil {
		t.Fatal("CheckInput passed a path graph")
	}
}

func TestFindCircuitTinyGraphClampsParts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewRandomEulerian(5, 1, 4, rng)
	// More partitions than vertices must clamp rather than fail.
	c, err := FindCircuit(g, WithPartitions(64))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, c.Steps); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialMatchesDistributedCoverage(t *testing.T) {
	g, _ := NewEulerianRMAT(2000, 5, 3)
	seqSteps, err := FindCircuitSeq(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, seqSteps); err != nil {
		t.Fatal(err)
	}
	dist, err := FindCircuit(g, WithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Steps) != len(seqSteps) {
		t.Fatalf("distributed %d steps vs sequential %d", len(dist.Steps), len(seqSteps))
	}
}

func TestFindEulerPathFacade(t *testing.T) {
	b := NewBuilder(5, 5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 1)
	g := b.Build()
	steps, err := FindEulerPath(g, WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(steps)) != g.NumEdges() {
		t.Fatalf("path has %d steps for %d edges", len(steps), g.NumEdges())
	}
}

func TestCoveringTourFacade(t *testing.T) {
	// An open grid needs deadheading.
	b := NewBuilder(9, 12)
	for y := int64(0); y < 3; y++ {
		for x := int64(0); x < 3; x++ {
			if x+1 < 3 {
				b.AddEdge(y*3+x, y*3+x+1)
			}
			if y+1 < 3 {
				b.AddEdge(y*3+x, (y+1)*3+x)
			}
		}
	}
	g := b.Build()
	tour, err := CoveringTour(g, WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
	if tour.Revisits == 0 {
		t.Fatal("grid tour should deadhead")
	}
}

func TestPartitionRefineFacade(t *testing.T) {
	g, _ := NewEulerianRMAT(4000, 5, 9)
	a := PartitionHash(g, 4)
	refined, gain := PartitionRefine(g, a)
	if gain <= 0 {
		t.Fatalf("gain = %d", gain)
	}
	c, err := FindCircuit(g, WithAssignment(refined))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, c.Steps); err != nil {
		t.Fatal(err)
	}
}

func TestOptionValidationSharedAcrossEntryPoints(t *testing.T) {
	// Path graph with two odd vertices for FindEulerPath/CoveringTour.
	b := NewBuilder(5, 5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 1)
	g := b.Build()

	// Every facade entry point rejects parts < 1...
	if _, err := FindEulerPath(g, WithPartitions(0)); err == nil {
		t.Fatal("FindEulerPath accepted parts=0")
	}
	if _, err := CoveringTour(g, WithPartitions(-3)); err == nil {
		t.Fatal("CoveringTour accepted parts=-3")
	}
	if _, err := FindCircuit(NewTorus(4, 4), WithPartitions(0)); err == nil {
		t.Fatal("FindCircuit accepted parts=0")
	}

	// ...and clamps parts > |V| instead of failing.
	if _, err := FindEulerPath(g, WithPartitions(64)); err != nil {
		t.Fatalf("FindEulerPath with oversized parts: %v", err)
	}
	tour, err := CoveringTour(g, WithPartitions(64))
	if err != nil {
		t.Fatalf("CoveringTour with oversized parts: %v", err)
	}
	if err := VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
}

// TestFindCircuitFailsAfterEmissionBegan pins what callers see when Phase 3
// fails late.  Unroll streams: on two disjoint triangles the first has
// reached emit by the time the second turns out to share no vertex with
// it.  (A disconnected input always has floating cycles; the same
// contract on the direct-emission path is pinned with a failing store in
// internal/euler's TestUnrollErrorAfterDirectEmission.)  FindCircuit must
// return no circuit at all, not the prefix.
func TestFindCircuitFailsAfterEmissionBegan(t *testing.T) {
	b := NewBuilder(6, 6)
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	split := WithAssignment(Assignment{Parts: 2, Of: []int32{0, 0, 0, 1, 1, 1}})

	var prefix []Step
	report, err := FindCircuitStream(g, func(s Step) error { prefix = append(prefix, s); return nil }, split)
	if err == nil || !strings.Contains(err.Error(), "disconnected") || report != nil {
		t.Fatalf("FindCircuitStream = %v, %v; want a disconnected-input error and no report", report, err)
	}
	if len(prefix) != 3 {
		t.Fatalf("%d steps emitted before the failure, want the first triangle", len(prefix))
	}
	c, err := FindCircuit(g, split)
	if err == nil || !strings.Contains(err.Error(), "disconnected") || c != nil {
		t.Fatalf("FindCircuit = %v, %v; want a disconnected-input error and no circuit", c, err)
	}
}
