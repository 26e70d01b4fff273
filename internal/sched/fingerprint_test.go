package sched

import (
	"bytes"
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// shuffleGraph rebuilds g with its edge list in random order and random
// endpoint orientation — the strongest "same graph, different
// submission bytes" transform the canonical form must erase.
func shuffleGraph(t *testing.T, g *graph.Graph, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([][2]graph.VertexID, g.NumEdges())
	for i, e := range g.Edges() {
		if rng.Intn(2) == 0 {
			edges[i] = [2]graph.VertexID{e.U, e.V}
		} else {
			edges[i] = [2]graph.VertexID{e.V, e.U}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.FromEdges(g.NumVertices(), edges)
}

// TestFingerprintCanonicalization is the acceptance test for the
// content address: the same graph reaching the server as a generator
// spec, as a shuffled explicit edge list, and as an EULGRPH1 upload
// round trip must fingerprint identically; any solve-option change
// must not.
func TestFingerprintCanonicalization(t *testing.T) {
	opts := SolveOptions{Parts: 4, Mode: "current", Seed: 7}
	generated := gen.Torus(6, 4)
	base := FingerprintGraph(generated, opts)

	// Shuffled edge lists, several permutations.
	for seed := int64(1); seed <= 3; seed++ {
		if got := FingerprintGraph(shuffleGraph(t, generated, seed), opts); got != base {
			t.Fatalf("shuffle seed %d changed the fingerprint: %s vs %s", seed, got, base)
		}
	}

	// EULGRPH1 upload round trip.
	var buf bytes.Buffer
	if err := graph.Write(&buf, generated); err != nil {
		t.Fatal(err)
	}
	uploaded, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := FingerprintGraph(uploaded, opts); got != base {
		t.Fatalf("upload round trip changed the fingerprint: %s vs %s", got, base)
	}

	// The default mode spelling is canonical.
	if got := FingerprintGraph(generated, SolveOptions{Parts: 4, Mode: "", Seed: 7}); got != base {
		t.Fatalf("mode \"\" and \"current\" must fingerprint identically")
	}

	// Any differing option produces a different address.
	for name, other := range map[string]SolveOptions{
		"parts": {Parts: 5, Mode: "current", Seed: 7},
		"mode":  {Parts: 4, Mode: "proposed", Seed: 7},
		"seed":  {Parts: 4, Mode: "current", Seed: 8},
	} {
		if got := FingerprintGraph(generated, other); got == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}

	// A different graph produces a different address, including the
	// near-miss with one extra parallel edge.
	if got := FingerprintGraph(gen.Torus(4, 6), opts); got == base {
		t.Error("transposed torus fingerprinted like the original")
	}
	edges := make([][2]graph.VertexID, 0, generated.NumEdges()+1)
	for _, e := range generated.Edges() {
		edges = append(edges, [2]graph.VertexID{e.U, e.V})
	}
	edges = append(edges, edges[0])
	if got := FingerprintGraph(graph.FromEdges(generated.NumVertices(), edges), opts); got == base {
		t.Error("adding a parallel edge did not change the fingerprint")
	}
}

// canonicalForm is the sorted-edge-list canonical form the fingerprint
// hashed before the multiset sum: the vertex count plus every edge as a
// normalised (min, max) pair, sorted.  It is the reference the
// fingerprint's equality must agree with.
func canonicalForm(n int64, edges [][2]graph.VertexID) (int64, [][2]graph.VertexID) {
	pairs := make([][2]graph.VertexID, len(edges))
	for i, e := range edges {
		pairs[i] = [2]graph.VertexID{min(e[0], e[1]), max(e[0], e[1])}
	}
	slices.SortFunc(pairs, func(a, b [2]graph.VertexID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return n, pairs
}

// TestFingerprintMatchesCanonicalForm: over random multigraphs and one
// mutation of each, two fingerprints are equal exactly when the graphs'
// canonical forms (vertex count, sorted normalised pair list) are.
func TestFingerprintMatchesCanonicalForm(t *testing.T) {
	opts := SolveOptions{Parts: 3, Seed: 5}
	rng := rand.New(rand.NewSource(37))
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		g := gen.RandomEulerian(3+rng.Int63n(12), rng.Intn(5), 3+rng.Int63n(5), rng)
		n := g.NumVertices()
		edges := make([][2]graph.VertexID, 0, g.NumEdges()+1)
		for _, e := range g.Edges() {
			edges = append(edges, [2]graph.VertexID{e.U, e.V})
		}
		mutated := slices.Clone(edges)
		var mutation string
		switch k := rng.Intn(len(mutated)); rng.Intn(5) {
		case 0:
			mutation = "shuffle"
			for j := range mutated {
				if rng.Intn(2) == 0 {
					mutated[j][0], mutated[j][1] = mutated[j][1], mutated[j][0]
				}
			}
			rng.Shuffle(len(mutated), func(a, b int) { mutated[a], mutated[b] = mutated[b], mutated[a] })
		case 1:
			mutation = "add parallel copy"
			mutated = append(mutated, [2]graph.VertexID{mutated[k][1], mutated[k][0]})
		case 2:
			mutation = "remove one copy"
			mutated = slices.Delete(mutated, k, k+1)
		case 3:
			// Moving an endpoint onto itself leaves the multiset as it
			// was, so this mutation yields both equal and unequal pairs.
			mutation = "move endpoint"
			w := rng.Int63n(n)
			for w == mutated[k][0] {
				w = rng.Int63n(n)
			}
			mutated[k][1] = w
		case 4:
			mutation = "add isolated vertex"
			n++
		}
		n0, want0 := canonicalForm(g.NumVertices(), edges)
		n1, want1 := canonicalForm(n, mutated)
		wantEqual := n0 == n1 && slices.Equal(want0, want1)
		gotEqual := FingerprintGraph(g, opts) == FingerprintGraph(graph.FromEdges(n, mutated), opts)
		if gotEqual != wantEqual {
			t.Fatalf("case %d (%s): fingerprints equal = %v, canonical forms equal = %v", i, mutation, gotEqual, wantEqual)
		}
		seen[mutation] = true
		seen["equal"] = seen["equal"] || wantEqual
		seen["unequal"] = seen["unequal"] || !wantEqual
	}
	if len(seen) != 7 {
		t.Fatalf("cases reached %v, want all five mutations and both outcomes", seen)
	}

	// Endpoints are hashed as full 64-bit values: IDs that agree in
	// their low 32 bits stay distinct.
	var a, b edgeMultiset
	a.add([]graph.Edge{{U: 1, V: 1<<32 | 2}})
	b.add([]graph.Edge{{U: 1, V: 2}})
	if a.fingerprint(1<<33, opts) == b.fingerprint(1<<33, opts) {
		t.Fatal("endpoints differing above bit 32 fingerprinted alike")
	}
}

// TestFingerprintConcurrent: every submit handler shares the process's
// cipher, so concurrent fingerprints of one graph must all agree.
func TestFingerprintConcurrent(t *testing.T) {
	g := gen.Torus(40, 30)
	opts := SolveOptions{Parts: 4, Seed: 7}
	want := FingerprintGraph(g, opts)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := FingerprintGraph(g, opts); got != want {
					t.Errorf("concurrent fingerprint %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFingerprintUploadMatchesGraph: the streaming upload fingerprint
// (block-by-block parse into the multiset sum) must equal the in-memory
// fingerprint of the same file.
func TestFingerprintUploadMatchesGraph(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus", gen.Torus(9, 7)},
		{"cliques", gen.RingOfCliques(5, 7)},
		{"walks", gen.RandomEulerian(120, 5, 30, rand.New(rand.NewSource(2)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "g.bin")
			if err := graph.WriteFile(path, tc.g); err != nil {
				t.Fatal(err)
			}
			opts := SolveOptions{Parts: 4, Seed: 9, Mode: "proposed"}
			want := FingerprintGraph(tc.g, opts)
			got, err := FingerprintUpload(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("upload fingerprint %s, in-memory %s", got, want)
			}
		})
	}
}

func TestFingerprintUploadRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(path, []byte("EULGRPH1\x04"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FingerprintUpload(path, SolveOptions{Parts: 1, Seed: 1}); err == nil {
		t.Fatal("truncated upload fingerprinted without error")
	}
}

// BenchmarkFingerprintGraph fingerprints the rmat-solve benchmark graph
// (1.05 M edges); b.Loop starts the clock after generation.  Its
// allocs/op budget in scripts/alloc_budget.txt catches a per-edge
// allocation or a sort buffer coming back.
func BenchmarkFingerprintGraph(b *testing.B) {
	g, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: 400_000, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: 42})
	opts := SolveOptions{Parts: 8, Mode: "current", Seed: 1, Kind: "euler"}
	b.ReportAllocs()
	for b.Loop() {
		FingerprintGraph(g, opts)
	}
}
