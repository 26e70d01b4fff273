package euler_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	euler "repro"
	"repro/internal/cluster"
	ieuler "repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/oocgraph"
	"repro/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_circuits.txt from the current engine")

const goldenFile = "testdata/golden_circuits.txt"

// goldenInput is one row group of the golden table.  Most inputs are one
// graph; serve-mixed is its whole upload pool, checksummed as one stream.
type goldenInput struct {
	name   string
	parts  int32
	graphs []*euler.Graph
}

func benchRMAT(vertices, seed int64) *euler.Graph {
	g, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: vertices, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: seed})
	return g
}

// goldenInputs lists every generator family at a small fixed size, then
// the six benchmark workloads' inputs at 1/50 size (benchmark/inputs.go's
// smokeSize, seed 42).  Odd part counts leave carried, idle states.
func goldenInputs() []goldenInput {
	one := func(name string, parts int32, g *euler.Graph) goldenInput {
		return goldenInput{name: name, parts: parts, graphs: []*euler.Graph{g}}
	}
	rmat, _ := euler.NewEulerianRMAT(512, 6, 17)
	inputs := []goldenInput{
		one("torus", 4, gen.Torus(12, 8)),
		one("cycle", 4, gen.Cycle(64)),
		one("complete-odd", 3, gen.CompleteOdd(9)),
		one("ring-of-cliques", 4, gen.RingOfCliques(6, 7)),
		one("random-eulerian", 5, gen.RandomEulerian(120, 4, 30, rand.New(rand.NewSource(5)))),
		one("hypercube", 4, gen.Hypercube(6)),
		one("bipartite", 3, gen.CompleteBipartite(6, 8)),
		one("rmat", 5, rmat),
		one("bench-rmat-solve", 8, benchRMAT(8_000, 42)),
		one("bench-torus-solve", 8, gen.Torus(108, 108)),
		one("bench-torus-paged", 8, gen.Torus(54, 54)),
		one("bench-cliques-delta", 16, gen.RingOfCliques(82, 13)),
		one("bench-cluster-loopback", 8, benchRMAT(2_000, 42)),
	}
	serve := goldenInput{name: "bench-serve-mixed", parts: 4}
	for i := int64(0); i < 12; i++ { // benchmark/mix.go's uploadPool
		edges := 400 + 1_200*(i/3)/3
		switch i % 3 {
		case 0:
			side := int64(math.Sqrt(float64(edges) / 2))
			serve.graphs = append(serve.graphs, gen.Torus(side, side))
		case 1:
			serve.graphs = append(serve.graphs, benchRMAT(edges*10/26, 42+i))
		case 2:
			serve.graphs = append(serve.graphs, gen.RingOfCliques(edges/78, 13))
		}
	}
	return append(inputs, serve)
}

// stepSum is the 64-bit rolling checksum of a step stream (FNV-1a over
// edge, from, to), the same fold the benchmark's cross-path checks use.
type stepSum struct {
	sum   uint64
	steps int64
}

func (c *stepSum) emit(s euler.Step) error {
	const prime = 1099511628211
	c.sum = (c.sum ^ uint64(s.Edge)) * prime
	c.sum = (c.sum ^ uint64(s.From)) * prime
	c.sum = (c.sum ^ uint64(s.To)) * prime
	c.steps++
	return nil
}

// goldenPath solves g down one of the four solve paths into emit.
type goldenPath struct {
	name  string
	solve func(t *testing.T, g *euler.Graph, parts int32, mode euler.Mode, emit func(euler.Step) error) error
}

func goldenPaths(coord *cluster.Coordinator) []goldenPath {
	opts := func(parts int32, mode euler.Mode) []euler.Option {
		return []euler.Option{euler.WithPartitions(parts), euler.WithMode(mode)}
	}
	return []goldenPath{
		{"mem", func(_ *testing.T, g *euler.Graph, parts int32, mode euler.Mode, emit func(euler.Step) error) error {
			_, err := euler.FindCircuitStream(g, emit, opts(parts, mode)...)
			return err
		}},
		// A 2 KiB page and four resident pages: every adjacency scan evicts.
		{"paged", func(t *testing.T, g *euler.Graph, parts int32, mode euler.Mode, emit func(euler.Step) error) error {
			dir := t.TempDir()
			file := filepath.Join(dir, "graph.bin")
			if err := graph.WriteFile(file, g); err != nil {
				return err
			}
			pg, err := oocgraph.BuildPaged(file, oocgraph.BuildOptions{Dir: dir, PageHalves: 128, MemBytes: 4 * 128 * 16})
			if err != nil {
				return err
			}
			defer pg.Close()
			_, err = euler.FindCircuitStreamSource(pg, filepath.Join(dir, "spill"), emit, opts(parts, mode)...)
			return err
		}},
		{"cluster", func(_ *testing.T, g *euler.Graph, parts int32, mode euler.Mode, emit func(euler.Step) error) error {
			a := partition.LDG(g, parts, ieuler.DefaultSeed)
			res, _, err := coord.Run(context.Background(), g, a, ieuler.Config{Mode: mode})
			if err != nil {
				return err
			}
			return res.Registry.Unroll(emit)
		}},
		// Retain a solve of g plus two parallel copies of one edge, then
		// delta-solve g itself: clean nodes replay, the edited ones re-tour,
		// and the circuit must be the from-scratch circuit of g.
		{"delta", func(_ *testing.T, g *euler.Graph, parts int32, mode euler.Mode, emit func(euler.Step) error) error {
			b := euler.NewBuilder(g.NumVertices(), int(g.NumEdges())+2)
			for id := int64(0); id < g.NumEdges(); id++ {
				b.AddEdge(g.Edge(id).U, g.Edge(id).V)
			}
			e := g.Edge(g.NumEdges() / 2)
			b.AddEdge(e.U, e.V)
			b.AddEdge(e.U, e.V)
			_, retained, err := euler.FindCircuitStreamRetain(b.Build(), func(euler.Step) error { return nil }, opts(parts, mode)...)
			if err != nil {
				return err
			}
			_, _, err = euler.FindCircuitStreamDelta(g, emit, retained, opts(parts, mode)...)
			return err
		}},
	}
}

// startLoopbackCluster brings up a coordinator and two worker nodes joined
// over loopback TCP; stop tears both down.
func startLoopbackCluster(t *testing.T) (*cluster.Coordinator, func()) {
	t.Helper()
	coord, err := cluster.NewCoordinator("127.0.0.1:0", cluster.Options{MinNodes: 2, WaitNodes: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, 2) // one send per worker node
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("golden-node-%d", i)
		go func() {
			// RunWorker returns once ctx is cancelled.
			_ = cluster.RunWorker(ctx, coord.Addr().String(), cluster.WorkerOptions{Name: name, Capacity: 8})
			done <- struct{}{}
		}()
	}
	return coord, func() {
		cancel()
		if err := coord.Close(); err != nil {
			t.Errorf("closing coordinator: %v", err)
		}
		<-done
		<-done
	}
}

// TestGoldenCircuits pins the circuit every solve path emits in every
// mode: one checksum per (input, mode, path) in a checked-in table.  The
// engine may be rewritten freely underneath it; the table may not move.
// Regenerate with `go test -run TestGoldenCircuits -update .` only when a
// change is meant to alter circuits.
func TestGoldenCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("golden table solves every input 12 ways")
	}
	coord, stop := startLoopbackCluster(t)
	defer stop()
	paths := goldenPaths(coord)

	var table strings.Builder
	table.WriteString("# input mode path checksum steps — see golden_test.go; regenerate with -update\n")
	for _, in := range goldenInputs() {
		for _, mode := range []euler.Mode{euler.ModeCurrent, euler.ModeDedup, euler.ModeProposed} {
			var mem stepSum
			for _, p := range paths {
				var sum stepSum
				for _, g := range in.graphs {
					if err := p.solve(t, g, in.parts, mode, sum.emit); err != nil {
						t.Fatalf("%s %v %s: %v", in.name, mode, p.name, err)
					}
				}
				if p.name == "mem" {
					mem = sum
				} else if sum != mem {
					t.Errorf("%s %v: %s circuit differs from the in-memory circuit", in.name, mode, p.name)
				}
				fmt.Fprintf(&table, "%s %v %s %016x %d\n", in.name, mode, p.name, sum.sum, sum.steps)
			}
		}
	}

	if *updateGolden {
		if err := os.WriteFile(goldenFile, []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(table.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden table has %d lines, the engine produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("golden line %d:\n  have %s\n  want %s", i+1, got[i], wantLines[i])
		}
	}
}
