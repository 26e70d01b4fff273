package oocgraph

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// writeGraphFile serialises g to an EULGRPH1 file in a test temp dir.
func writeGraphFile(t testing.TB, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// testFamilies covers every generator family the repo ships.
func testFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 7))
	return map[string]*graph.Graph{
		"torus":         gen.Torus(13, 9),
		"cycle":         gen.Cycle(97),
		"completeOdd":   gen.CompleteOdd(21),
		"ringOfCliques": gen.RingOfCliques(8, 7),
		"rmat":          rmat,
		"randomWalks":   gen.RandomEulerian(150, 6, 40, rand.New(rand.NewSource(3))),
		"hypercube":     gen.Hypercube(6),
		"bipartite":     gen.CompleteBipartite(8, 6),
		"streets":       gen.StreetGrid(9, 7, 0.1, 5),
	}
}

// TestBlockReaderMatchesRead: the paged graph's block scans (both build
// passes and ForEachEdge) must replay the file's exact edge list at any
// block size; a tiny one forces varints to straddle block boundaries
// constantly.
func TestBlockReaderMatchesRead(t *testing.T) {
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			path := writeGraphFile(t, g)
			for _, bs := range []int{64, 101, graph.DefaultBlockSize} {
				pg, err := BuildPaged(path, BuildOptions{Dir: t.TempDir(), BlockSize: bs})
				if err != nil {
					t.Fatalf("block %d: %v", bs, err)
				}
				var edges []graph.Edge
				err = pg.ForEachEdge(func(e graph.Edge) error {
					edges = append(edges, e)
					return nil
				})
				if err != nil {
					t.Fatalf("block %d: %v", bs, err)
				}
				if err := pg.Close(); err != nil {
					t.Fatal(err)
				}
				want := g.Edges()
				if len(edges) != len(want) {
					t.Fatalf("block %d: %d edges, want %d", bs, len(edges), len(want))
				}
				for i := range edges {
					if edges[i] != want[i] {
						t.Fatalf("block %d: edge %d = %+v, want %+v", bs, i, edges[i], want[i])
					}
				}
			}
		})
	}
}

// TestEdgeScanAllocation gates what one full edge scan of the torus-paged
// file (384x384, 294 912 edges) allocates: one scan block and a few
// small objects, whatever the graph's size.
func TestEdgeScanAllocation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pg, err := BuildPaged(writeGraphFile(t, gen.Torus(384, 384)), BuildOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	var before, after runtime.MemStats
	edges := 0
	runtime.ReadMemStats(&before)
	err = pg.ForEachEdge(func(graph.Edge) error {
		edges++
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if edges != 2*384*384 {
		t.Fatalf("scanned %d edges, want %d", edges, 2*384*384)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("one edge scan allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestPagedGraphByteIdentity is the tentpole invariant: the paged CSR must
// expose exactly the adjacency the in-heap Builder produces, page budget
// notwithstanding, across every generator family.
func TestPagedGraphByteIdentity(t *testing.T) {
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			path := writeGraphFile(t, g)
			// Small pages and a tiny budget force constant eviction.
			pg, err := BuildPaged(path, BuildOptions{
				Dir:        t.TempDir(),
				PageHalves: 64,
				MemBytes:   4 * 64 * halfBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Close()

			if pg.NumVertices() != g.NumVertices() || pg.NumEdges() != g.NumEdges() {
				t.Fatalf("counts (%d,%d), want (%d,%d)",
					pg.NumVertices(), pg.NumEdges(), g.NumVertices(), g.NumEdges())
			}
			for v := int64(0); v < g.NumVertices(); v++ {
				if pg.Degree(v) != g.Degree(v) {
					t.Fatalf("degree(%d) = %d, want %d", v, pg.Degree(v), g.Degree(v))
				}
				got, want := pg.Adj(v), g.Adj(v)
				if len(got) != len(want) {
					t.Fatalf("adj(%d): %d halves, want %d", v, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("adj(%d)[%d] = %+v, want %+v", v, i, got[i], want[i])
					}
				}
			}
			// The streaming scan must also replay the exact edge list.
			i := int64(0)
			err = pg.ForEachEdge(func(e graph.Edge) error {
				if want := g.Edge(graph.EdgeID(i)); e != want {
					t.Fatalf("scan edge %d = %+v, want %+v", i, e, want)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != g.NumEdges() {
				t.Fatalf("scan visited %d edges, want %d", i, g.NumEdges())
			}
		})
	}
}

// TestPagedGraphRandomAccess hammers Adj in random order under a page
// budget of one, the worst case for the LRU.
func TestPagedGraphRandomAccess(t *testing.T) {
	g := gen.RingOfCliques(6, 9)
	path := writeGraphFile(t, g)
	pg, err := BuildPaged(path, BuildOptions{
		Dir:        t.TempDir(),
		PageHalves: 32,
		MemBytes:   32 * halfBytes, // exactly one page resident
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		v := graph.VertexID(rng.Int63n(g.NumVertices()))
		got, want := pg.Adj(v), g.Adj(v)
		if len(got) != len(want) {
			t.Fatalf("adj(%d): %d halves, want %d", v, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("adj(%d)[%d] = %+v, want %+v", v, j, got[j], want[j])
			}
		}
	}
	faults, resident, live := Stats()
	if faults <= 0 || resident < 0 || live < 0 {
		t.Fatalf("stats (%d, %d, %d) implausible", faults, resident, live)
	}
}

// TestBlockReaderRejectsMalformed: BuildPaged refuses a malformed edge
// file with an error wrapping graph.ErrBadFormat.
func TestBlockReaderRejectsMalformed(t *testing.T) {
	g := gen.Cycle(10)
	path := writeGraphFile(t, g)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"badMagic":  append([]byte("NOTGRPH1"), good[8:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0x01),
		"empty":     {},
		"headerCut": good[:9],
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.bin")
			if err := os.WriteFile(p, body, 0o644); err != nil {
				t.Fatal(err)
			}
			pg, err := BuildPaged(p, BuildOptions{Dir: t.TempDir(), BlockSize: 64})
			if err == nil {
				pg.Close()
				t.Fatal("built a paged graph, want an error")
			}
			if !errors.Is(err, graph.ErrBadFormat) {
				t.Fatalf("error %v does not wrap graph.ErrBadFormat", err)
			}
		})
	}
}

func TestStreamWriterIdentity(t *testing.T) {
	g := gen.Torus(7, 5)
	want := writeGraphFile(t, g)
	got := filepath.Join(t.TempDir(), "streamed.bin")
	sw, err := graph.NewStreamWriter(got, uint64(g.NumVertices()), uint64(g.NumEdges()))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ForEachEdge(func(e graph.Edge) error { return sw.Append(e.U, e.V) }); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("streamed file differs from WriteFile output (%d vs %d bytes)", len(b), len(a))
	}
}
