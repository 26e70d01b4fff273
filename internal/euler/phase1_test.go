package euler

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// leafState builds the level-0 state for one partition of g under
// ModeCurrent, for direct phase1 testing.
func leafState(t *testing.T, g *graph.Graph, a partition.Assignment, part int) *PartState {
	t.Helper()
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildMergeTree(meta, GreedyMaxWeight)
	states, _, err := BuildLeafStates(g, a, tree, ModeCurrent)
	if err != nil {
		t.Fatal(err)
	}
	return states[part]
}

func TestPhase1Figure1PartitionP3(t *testing.T) {
	// Paper Fig. 1a→1b, partition P3 = {v6,v7,v8,v9} (IDs 5..8): local
	// path e6,7 e7,8 e8,9 between OBs v6 and v9 becomes the OB-pair e6,9.
	g, part := gen.PaperFigure1()
	a := partition.Assignment{Parts: 4, Of: part}
	st := leafState(t, g, a, 2)
	bodies := map[PathID][]byte{}
	keep := func(id PathID, data []byte) error {
		bodies[id] = slices.Clone(data)
		return nil
	}
	res, err := phase1(st, 0, bodySink{encoded: keep}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OB != 2 || res.Stats.Paths != 1 {
		t.Fatalf("OB=%d paths=%d, want 2/1", res.Stats.OB, res.Stats.Paths)
	}
	if len(res.OBPairs) != 1 {
		t.Fatalf("OBPairs = %+v, want 1", res.OBPairs)
	}
	pair := res.OBPairs[0]
	// Endpoints are v6 (ID 5) and v9 (ID 8) in either order.
	if !(pair.U == 5 && pair.V == 8) && !(pair.U == 8 && pair.V == 5) {
		t.Errorf("OB-pair endpoints (%d,%d), want (5,8)", pair.U, pair.V)
	}
	if res.Stats.Cycles != 0 {
		t.Errorf("cycles = %d, want 0", res.Stats.Cycles)
	}
	// The path body holds the three local edges.
	items, err := decodeBody(bodies[pair.Ref])
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("body has %d items, want 3", len(items))
	}
}

func TestPhase1Figure1PartitionP2(t *testing.T) {
	// Partition P2 = {v3,v4,v5} (IDs 2..4): v3 is an EB (two remote
	// edges), the triangle e3,4 e4,5 e3,5 becomes an EB cycle at v3.
	g, part := gen.PaperFigure1()
	a := partition.Assignment{Parts: 4, Of: part}
	st := leafState(t, g, a, 1)
	res, err := phase1(st, 0, discardBody, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OB != 0 || res.Stats.EB != 1 {
		t.Fatalf("OB=%d EB=%d, want 0/1", res.Stats.OB, res.Stats.EB)
	}
	if res.Stats.Cycles != 1 || res.Stats.Paths != 0 {
		t.Fatalf("cycles=%d paths=%d, want 1/0", res.Stats.Cycles, res.Stats.Paths)
	}
	rec := res.Recs[0]
	if rec.Type != EBCycle || rec.Src != 2 || rec.Items != 3 {
		t.Errorf("rec = %+v, want EBCycle at v3 (ID 2) with 3 items", rec)
	}
	if len(res.OBPairs) != 0 {
		t.Errorf("OBPairs = %+v, want none", res.OBPairs)
	}
}

func TestPhase1ConsumesAllLocalEdges(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 41))
	a := partition.LDG(g, 4, 1)
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		t.Fatal(err)
	}
	tree := BuildMergeTree(meta, GreedyMaxWeight)
	states, _, err := BuildLeafStates(g, a, tree, ModeCurrent)
	if err != nil {
		t.Fatal(err)
	}
	for p, st := range states {
		res, err := phase1(st, 0, discardBody, nil, nil)
		if err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
		// Invariant: every local edge appears in exactly one body.
		if res.Stats.Items != res.Stats.Local {
			t.Errorf("partition %d: %d items emitted for %d local edges",
				p, res.Stats.Items, res.Stats.Local)
		}
		// Lemma 1: exactly OB/2 paths, and every OB is an endpoint of
		// exactly one OB-pair edge.
		if res.Stats.Paths*2 != res.Stats.OB {
			t.Errorf("partition %d: %d paths for %d OBs", p, res.Stats.Paths, res.Stats.OB)
		}
		endpointCount := make(map[graph.VertexID]int)
		for _, e := range res.OBPairs {
			endpointCount[e.U]++
			endpointCount[e.V]++
		}
		for v, c := range endpointCount {
			if c != 1 {
				t.Errorf("partition %d: OB %d is an endpoint of %d OB-pairs", p, v, c)
			}
		}
	}
}

func TestPhase1ParityViolation(t *testing.T) {
	// A lone local edge between two internal vertices (no remote edges)
	// breaks the parity invariant and must be rejected.
	st := &PartState{
		Parent: 0,
		Leaves: []int{0},
		Local:  []CoarseEdge{{U: 1, V: 2, Kind: ItemEdge, Ref: 0}},
	}
	_, err := phase1(st, 0, discardBody, nil, nil)
	if err == nil {
		t.Fatal("parity violation should fail")
	}
}

func TestPhase1TrivialEB(t *testing.T) {
	// A boundary vertex with only remote edges is a trivial singleton.
	st := &PartState{
		Parent: 0,
		Leaves: []int{0},
		Remote: [][]RemoteEdge{{
			{Local: 7, Remote: 9, Edge: 0, ConvertLevel: 0},
			{Local: 7, Remote: 10, Edge: 1, ConvertLevel: 0},
		}},
	}
	res, err := phase1(st, 0, discardBody, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Trivial != 1 || res.Stats.EB != 1 {
		t.Errorf("trivial=%d EB=%d, want 1/1", res.Stats.Trivial, res.Stats.EB)
	}
	if len(res.Recs) != 0 {
		t.Errorf("recs = %+v, want none", res.Recs)
	}
}

func TestPhase1DeterministicIDs(t *testing.T) {
	g := gen.Torus(6, 6)
	a := partition.LDG(g, 2, 1)
	run := func() []PathRec {
		st := leafState(t, g, a, 0)
		res, err := phase1(st, 0, discardBody, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Recs
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("rec counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("rec %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestMakePathID(t *testing.T) {
	id := MakePathID(3, 5, 7)
	if id <= 0 {
		t.Fatalf("id = %d", id)
	}
	if MakePathID(0, 0, 0) == 0 {
		t.Fatal("PathID 0 is reserved")
	}
	// Distinctness across the three fields.
	seen := map[PathID]bool{}
	for l := 0; l < 3; l++ {
		for p := 0; p < 3; p++ {
			for s := int64(0); s < 3; s++ {
				id := MakePathID(l, p, s)
				if seen[id] {
					t.Fatalf("duplicate ID %d", id)
				}
				seen[id] = true
			}
		}
	}
}
