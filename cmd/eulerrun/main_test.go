package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	euler "repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// storeGraph writes g as an EULGRPH1 file and returns its path.
func storeGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

// runOK runs eulerrun with args and returns what it printed.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("eulerrun %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// TestCircuitMatchesFindCircuit pins eulerrun's -circuit file, line for
// line, to the facade's circuit under the same parts, seed and mode.
func TestCircuitMatchesFindCircuit(t *testing.T) {
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(11, 7))
	modes := []struct {
		name string
		mode euler.Mode
	}{{"current", euler.ModeCurrent}, {"dedup", euler.ModeDedup}, {"proposed", euler.ModeProposed}}
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{{"torus", gen.Torus(8, 6)}, {"rmat", rmat}} {
		path := storeGraph(t, fam.g)
		for _, m := range modes {
			for _, k := range []int32{1, 3, 8} {
				c, err := euler.FindCircuit(fam.g, euler.WithPartitions(k), euler.WithSeed(1), euler.WithMode(m.mode))
				if err != nil {
					t.Fatal(err)
				}
				want := make([]string, len(c.Steps))
				for i, s := range c.Steps {
					want[i] = fmt.Sprintf("%d %d %d", s.From, s.To, s.Edge)
				}
				name := fmt.Sprintf("%s/%s/parts=%d", fam.name, m.name, k)
				out := filepath.Join(t.TempDir(), "circuit.txt")
				runOK(t, "-graph", path, "-parts", fmt.Sprint(k), "-mode", m.name, "-circuit", out)
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				got := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
				if len(got) != len(want) {
					t.Fatalf("%s: %d lines, want %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: line %d = %q, want %q", name, i+1, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPartsValidation covers -parts values the partitioner cannot take:
// non-positive and out-of-int32 counts are usage errors, and a count above
// |V| clamps to |V| like the facade's.
func TestPartsValidation(t *testing.T) {
	path := storeGraph(t, gen.Torus(8, 6))
	for _, parts := range []string{"0", "-2", "4294967300"} {
		err := run([]string{"-graph", path, "-parts", parts}, io.Discard)
		if !errors.As(err, new(usageError)) {
			t.Errorf("-parts %s: err = %v, want a usage error", parts, err)
		}
	}
	out := runOK(t, "-graph", path, "-parts", "100")
	if !strings.Contains(out, "n=48 ") || !strings.Contains(out, "circuit verified: 96 edges") {
		t.Fatalf("-parts 100 on 48 vertices:\n%s", out)
	}
}

// TestFileToCircuitEndToEnd runs eulerrun on a stored graph and checks the
// circuit verifies, and that -spill is not a flag.
func TestFileToCircuitEndToEnd(t *testing.T) {
	path := storeGraph(t, gen.Torus(10, 7))
	out := runOK(t, "-graph", path, "-parts", "4", "-mode", "proposed")
	if !strings.Contains(out, "circuit verified: 140 edges") {
		t.Fatalf("circuit not verified:\n%s", out)
	}
	if err := run([]string{"-graph", path, "-spill", t.TempDir()}, io.Discard); !errors.As(err, new(usageError)) {
		t.Fatalf("-spill: err = %v, want a usage error", err)
	}
}

func TestSequentialVerifies(t *testing.T) {
	out := runOK(t, "-graph", storeGraph(t, gen.Torus(10, 7)), "-seq")
	if !strings.Contains(out, "circuit verified: 140 edges") {
		t.Fatalf("sequential circuit not verified:\n%s", out)
	}
}

func TestFirstVertexWithEdges(t *testing.T) {
	b := graph.NewBuilder(5, 3)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2)
	g := b.Build()
	if v := firstVertexWithEdges(g); v != 2 {
		t.Fatalf("firstVertexWithEdges = %d, want 2", v)
	}
}
