package euler

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/oocgraph"
)

// oocTestGraphs are the Eulerian inputs the out-of-core path must solve
// byte-identically to the in-memory path.
func oocTestGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	rmat, _ := NewEulerianRMAT(1<<9, 6, 17)
	return map[string]*Graph{
		"torus":         NewTorus(12, 8),
		"ringOfCliques": NewRingOfCliques(6, 7),
		"rmat":          rmat,
	}
}

// TestFindCircuitStreamSourceByteIdentity solves each input twice — once
// in memory, once through a paged disk CSR with a page budget small
// enough to force eviction — and requires the emitted step sequences to
// match exactly.
func TestFindCircuitStreamSourceByteIdentity(t *testing.T) {
	for name, g := range oocTestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var want []Step
			if _, err := FindCircuitStream(g, func(s Step) error {
				want = append(want, s)
				return nil
			}, WithPartitions(4)); err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			path := filepath.Join(dir, "graph.bin")
			if err := graph.WriteFile(path, g); err != nil {
				t.Fatal(err)
			}
			pg, err := oocgraph.BuildPaged(path, oocgraph.BuildOptions{
				Dir:        dir,
				PageHalves: 128,
				MemBytes:   8 * 128 * 16, // eight pages resident
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Close()
			if err := CheckInput(pg); err != nil {
				t.Fatal(err)
			}

			var got []Step
			report, err := FindCircuitStreamSource(pg, filepath.Join(dir, "spill"), func(s Step) error {
				got = append(got, s)
				return nil
			}, WithPartitions(4))
			if err != nil {
				t.Fatal(err)
			}
			if report == nil {
				t.Fatal("nil report")
			}
			if len(got) != len(want) {
				t.Fatalf("out-of-core circuit has %d steps, in-memory %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: out-of-core %+v, in-memory %+v", i, got[i], want[i])
				}
			}
			if err := Verify(g, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFindCircuitStreamSourceEncodedIdentity checks identity at the wire
// level too: the encoded step streams must be byte-equal.
func TestFindCircuitStreamSourceEncodedIdentity(t *testing.T) {
	g := NewRingOfCliques(4, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.bin")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}

	var memSteps, oocSteps []Step
	if _, err := FindCircuitStream(g, func(s Step) error {
		memSteps = append(memSteps, s)
		return nil
	}, WithPartitions(4)); err != nil {
		t.Fatal(err)
	}

	pg, err := oocgraph.BuildPaged(path, oocgraph.BuildOptions{Dir: dir, PageHalves: 64, MemBytes: 4 * 64 * 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	if _, err := FindCircuitStreamSource(pg, "", func(s Step) error {
		oocSteps = append(oocSteps, s)
		return nil
	}, WithPartitions(4)); err != nil {
		t.Fatal(err)
	}
	mem := graph.AppendSteps(nil, memSteps)
	ooc := graph.AppendSteps(nil, oocSteps)
	if !bytes.Equal(mem, ooc) {
		t.Fatalf("encoded circuits differ: %d vs %d bytes", len(mem), len(ooc))
	}
}

func TestCheckInputSourceRejects(t *testing.T) {
	oddB := NewBuilder(3, 2) // path 0-1-2: endpoints have odd degree
	oddB.AddEdge(0, 1)
	oddB.AddEdge(1, 2)
	if err := CheckInput(oddB.Build()); err == nil {
		t.Fatal("odd-degree graph accepted")
	}
	// Two disjoint cycles: even everywhere, disconnected.
	b := NewBuilder(8, 8)
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 4}} {
		b.AddEdge(e[0], e[1])
	}
	if err := CheckInput(b.Build()); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if err := CheckInput(NewTorus(4, 4)); err != nil {
		t.Fatalf("torus rejected: %v", err)
	}
}
