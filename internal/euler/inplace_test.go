package euler

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/verify"
)

// smallMultigraph is one input of TestEverySmallAssignment.
type smallMultigraph struct {
	name string
	g    *graph.Graph
}

// smallMultigraphs are Eulerian multigraphs of at most 6 vertices: fixed
// shapes with parallel edges and cut vertices, and fuzzMultigraph draws,
// two of them with an isolated vertex, small enough to enumerate.
func smallMultigraphs(t *testing.T) []smallMultigraph {
	k5 := graph.NewBuilder(5, 10)
	for u := graph.VertexID(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5.AddEdge(u, v)
		}
	}
	gs := []smallMultigraph{
		{"triangle", graph.FromEdges(3, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}})},
		{"doubled-2-cycle", graph.FromEdges(2, [][2]graph.VertexID{{0, 1}, {1, 0}})},
		{"multi-edge-pairs", graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {0, 1}, {1, 2}, {2, 1}, {2, 3}, {3, 2}, {1, 3}, {3, 1}})},
		{"bowtie", graph.FromEdges(5, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}})},
		{"K5", k5.Build()},
	}
	for _, draw := range []struct {
		seed int64
		size int
	}{{21, 4}, {11, 5}, {12, 6}} {
		g := fuzzMultigraph(rand.New(rand.NewSource(draw.seed)), draw.size)
		if g.NumVertices() > 6 {
			t.Fatalf("fuzzMultigraph(seed %d, size %d) drew %d vertices", draw.seed, draw.size, g.NumVertices())
		}
		gs = append(gs, smallMultigraph{fmt.Sprintf("fuzz-%d-%d", draw.seed, draw.size), g})
	}
	return gs
}

// surjections calls fn with every assignment of n vertices onto all of
// parts parts; fn must not keep the slice.
func surjections(n int, parts int32, fn func(of []int32)) {
	of := make([]int32, n)
	used := make([]int, parts)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			if !slices.Contains(used, 0) {
				fn(of)
			}
			return
		}
		for p := int32(0); p < parts; p++ {
			of[v] = p
			used[p]++
			rec(v + 1)
			used[p]--
		}
	}
	rec(0)
}

// runSteps runs Phases 1–2 and unrolls the circuit.
func runSteps(t *testing.T, g *graph.Graph, a partition.Assignment, cfg Config) ([]Step, *Result) {
	t.Helper()
	res, err := Run(g, a, cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	var steps []Step
	if err := res.Registry.Unroll(func(s Step) error {
		steps = append(steps, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return steps, res
}

// TestEverySmallAssignment is the oracle for the in-place leaf tour.  For
// every surjective assignment of each small multigraph onto 2 to 4 parts
// (or as many as it has vertices) and every mode, with validation on, a
// resident run, whose leaves are toured in place over the graph, must
// emit a verified circuit and match a recording run, whose leaves are
// copied, encoded and decoded before they are toured: the same circuit
// step for step, the same per-partition reports and per-level Long
// counts, and a plan that encodes to the recorded plan's bytes.  The
// assignments cover parts with no local edge, parts whose every edge is
// cut, and parts that are not contiguous.
func TestEverySmallAssignment(t *testing.T) {
	cases := 0
	for _, sg := range smallMultigraphs(t) {
		g := sg.g
		for parts := int32(2); parts <= min(4, int32(g.NumVertices())); parts++ {
			surjections(int(g.NumVertices()), parts, func(of []int32) {
				a := partition.Assignment{Parts: parts, Of: slices.Clone(of)}
				for _, mode := range allModes {
					cases++
					name := fmt.Sprintf("%s %v %v", sg.name, of, mode)
					// Every other case runs on one engine slot, whose scratch
					// then tours every leaf in turn.
					cfg := Config{Mode: mode, Validate: true, Sequential: cases%2 == 0}
					plan, _, err := BuildPlan(g, a, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for w, l := range plan.leaves {
						if l.state == nil || l.state.onGraph == nil {
							t.Fatalf("%s: leaf %d of a resident plan is not held in place", name, w)
						}
					}
					planBytes, err := plan.EncodeSlice(0, plan.NumWorkers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}

					got, inPlace := runSteps(t, g, a, cfg)
					if err := verify.Circuit(g, got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					cfg.Record = true
					want, copied := runSteps(t, g, a, cfg)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: in-place circuit %v, copied %v", name, got, want)
					}
					if !bytes.Equal(planBytes, copied.Retained.PlanBytes) {
						t.Fatalf("%s: in-place plan encodes to other bytes than the copied plan", name)
					}
					gp, wp := inPlace.Report.Parts, copied.Report.Parts
					if len(gp) != len(wp) {
						t.Fatalf("%s: %d part reports, copied %d", name, len(gp), len(wp))
					}
					for i := range gp {
						g, w := gp[i], wp[i]
						if g.Level != w.Level || g.Part != w.Part || g.Stats != w.Stats || g.LongsAtStart != w.LongsAtStart ||
							g.RemoteEdges != w.RemoteEdges || g.StubGroups != w.StubGroups {
							t.Fatalf("%s: part report %+v, copied %+v", name, g, w)
						}
					}
					for i, lv := range inPlace.Report.Levels {
						if w := copied.Report.Levels[i]; lv.CumulativeLongs != w.CumulativeLongs || lv.Live != w.Live || lv.Active != w.Active {
							t.Fatalf("%s: level %d report %+v, copied %+v", name, i, lv, w)
						}
					}
				}
			})
		}
	}
	t.Logf("%d assignment × mode cases", cases)
}
