package verify

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seq"
)

func circuitOf(t *testing.T, g *graph.Graph) []graph.Step {
	t.Helper()
	steps, err := seq.Hierholzer(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

func TestCircuitAccepts(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"cycle": gen.Cycle(6),
		"torus": gen.Torus(4, 4),
		"k7":    gen.CompleteOdd(7),
	} {
		t.Run(name, func(t *testing.T) {
			if err := Circuit(g, circuitOf(t, g)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCircuitRejectsShort(t *testing.T) {
	g := gen.Cycle(6)
	steps := circuitOf(t, g)
	if err := Circuit(g, steps[:len(steps)-1]); err == nil {
		t.Fatal("short circuit accepted")
	}
}

func TestCircuitRejectsDuplicate(t *testing.T) {
	g := gen.Cycle(6)
	steps := circuitOf(t, g)
	steps[len(steps)-1] = steps[0]
	if err := Circuit(g, steps); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("err = %v, want duplicate-edge error", err)
	}
}

func TestCircuitRejectsBrokenWalk(t *testing.T) {
	g := gen.Cycle(6)
	steps := circuitOf(t, g)
	steps[2], steps[4] = steps[4], steps[2]
	if err := Circuit(g, steps); err == nil {
		t.Fatal("broken walk accepted")
	}
}

func TestCircuitRejectsBadOrientation(t *testing.T) {
	g := gen.Cycle(6)
	steps := circuitOf(t, g)
	steps[1].From, steps[1].To = steps[1].To+1, steps[1].From+1
	if err := Circuit(g, steps); err == nil {
		t.Fatal("bad orientation accepted")
	}
}

func TestCircuitRejectsOpenWalk(t *testing.T) {
	g := gen.Cycle(6)
	steps := circuitOf(t, g)
	// Rotate by half: still a valid edge sequence but the continuity
	// breaks at the seam unless it is a rotation... build an open walk by
	// dropping closure instead: reverse last step.
	last := &steps[len(steps)-1]
	last.From, last.To = last.To, last.From
	if err := Circuit(g, steps); err == nil {
		t.Fatal("open walk accepted")
	}
}

func TestCircuitRejectsUnknownEdge(t *testing.T) {
	g := gen.Cycle(3)
	steps := []graph.Step{{Edge: 99, From: 0, To: 1}, {Edge: 1, From: 1, To: 2}, {Edge: 2, From: 2, To: 0}}
	if err := Circuit(g, steps); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestCircuitEmpty(t *testing.T) {
	empty := graph.FromEdges(3, nil)
	if err := Circuit(empty, nil); err != nil {
		t.Fatalf("empty circuit of edgeless graph: %v", err)
	}
	if err := Circuit(gen.Cycle(3), nil); err == nil {
		t.Fatal("empty circuit of non-empty graph accepted")
	}
}

func TestPathAccepts(t *testing.T) {
	// 0-1-2 path graph has an Euler path 0→2.
	g := graph.FromEdges(3, [][2]graph.VertexID{{0, 1}, {1, 2}})
	steps := []graph.Step{{Edge: 0, From: 0, To: 1}, {Edge: 1, From: 1, To: 2}}
	if err := Path(g, steps, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := Path(g, steps, 2, 0); err == nil {
		t.Fatal("wrong endpoints accepted")
	}
}

func TestPathRejects(t *testing.T) {
	g := graph.FromEdges(3, [][2]graph.VertexID{{0, 1}, {1, 2}})
	if err := Path(g, nil, 0, 2); err == nil {
		t.Fatal("short path accepted")
	}
	dup := []graph.Step{{Edge: 0, From: 0, To: 1}, {Edge: 0, From: 1, To: 0}}
	if err := Path(g, dup, 0, 0); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

// bareSource hides a resident graph behind the graph.Source seam, the way
// a paged disk CSR presents itself.
type bareSource struct{ graph.Source }

func TestEulerianInput(t *testing.T) {
	torus := gen.Torus(4, 4)
	for _, src := range []graph.Source{torus, bareSource{torus}} {
		if err := EulerianInput(src); err != nil {
			t.Fatalf("%T: torus rejected: %v", src, err)
		}
	}
	odd := graph.FromEdges(3, [][2]graph.VertexID{{0, 1}, {1, 2}}) // path 0-1-2
	for _, src := range []graph.Source{odd, bareSource{odd}} {
		err := EulerianInput(src)
		if err == nil || !strings.Contains(err.Error(), "2 vertices have odd degree (first: 0)") {
			t.Fatalf("%T: odd degrees: %v", src, err)
		}
	}
	// Two disjoint cycles: even everywhere, disconnected; the second case
	// adds isolated vertices (3 and 7), which do not join either cycle.
	for _, disc := range []*graph.Graph{
		graph.FromEdges(6, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}),
		graph.FromEdges(8, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 4}}),
	} {
		err := EulerianInput(bareSource{disc})
		if err == nil || !strings.Contains(err.Error(), "multiple connected components") {
			t.Fatalf("disconnected: %v", err)
		}
	}
	// Isolated vertices beside one cycle are fine.
	if err := EulerianInput(graph.FromEdges(5, [][2]graph.VertexID{{1, 2}, {2, 3}, {3, 1}})); err != nil {
		t.Fatalf("cycle with isolated vertices rejected: %v", err)
	}
}

func TestRandomCircuitsAlwaysVerify(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomEulerian(40, 4, 8, rng)
		if err := Circuit(g, circuitOf(t, g)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
