package euler_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	euler "repro"
	ieuler "repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/oocgraph"
	"repro/internal/postman"
)

// TestEntryPointsMatchSolve: each FindCircuit* entry point is option
// resolution plus one euler.Solve call, so it must emit the circuit — and
// report the replay coverage and retained record — of a direct Solve with
// the equivalent spec.
func TestEntryPointsMatchSolve(t *testing.T) {
	rmat, _ := euler.NewEulerianRMAT(600, 6, 9)
	inputs := map[string]*euler.Graph{"torus": euler.NewTorus(14, 10), "rmat": rmat}
	for name, g := range inputs {
		for _, mode := range []euler.Mode{euler.ModeCurrent, euler.ModeDedup, euler.ModeProposed} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				opts := []euler.Option{euler.WithPartitions(4), euler.WithSeed(3), euler.WithMode(mode)}
				direct := func(src euler.GraphSource, spec ieuler.SolveSpec) (stepSum, *euler.Report, []byte) {
					t.Helper()
					spec.Parts, spec.Seed, spec.Mode = 4, 3, mode
					var sum stepSum
					report, record, err := ieuler.Solve(context.Background(), src, spec, sum.emit)
					if err != nil {
						t.Fatalf("Solve(%+v): %v", spec, err)
					}
					var retained []byte
					if record != nil {
						retained = ieuler.EncodeRunRecord(record)
					}
					return sum, report, retained
				}
				check := func(entry string, err error, got, want stepSum, report, wantReport *euler.Report, retained, wantRetained []byte) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", entry, err)
					}
					if got != want || got.steps != g.NumEdges() {
						t.Errorf("%s: circuit %016x/%d, Solve's is %016x/%d", entry, got.sum, got.steps, want.sum, want.steps)
					}
					if report.ReusedParts != wantReport.ReusedParts {
						t.Errorf("%s: ReusedParts = %d, Solve's is %d", entry, report.ReusedParts, wantReport.ReusedParts)
					}
					if !bytes.Equal(retained, wantRetained) {
						t.Errorf("%s: retained %d bytes differ from Solve's %d", entry, len(retained), len(wantRetained))
					}
				}

				want, wantReport, _ := direct(g, ieuler.SolveSpec{})
				inMemory := want
				c, err := euler.FindCircuit(g, opts...)
				if err != nil {
					t.Fatalf("FindCircuit: %v", err)
				}
				var collected stepSum
				for _, s := range c.Steps {
					collected.emit(s)
				}
				check("FindCircuit", nil, collected, want, c.Report, wantReport, nil, nil)

				var streamed stepSum
				report, err := euler.FindCircuitStream(g, streamed.emit, opts...)
				check("FindCircuitStream", err, streamed, want, report, wantReport, nil, nil)

				want, wantReport, wantRetained := direct(g, ieuler.SolveSpec{Retain: true})
				var kept stepSum
				report, retained, err := euler.FindCircuitStreamRetain(g, kept.emit, opts...)
				check("FindCircuitStreamRetain", err, kept, want, report, wantReport, retained, wantRetained)
				if len(retained) == 0 {
					t.Fatal("FindCircuitStreamRetain retained nothing")
				}

				base, err := ieuler.DecodeRunRecord(retained)
				if err != nil {
					t.Fatal(err)
				}
				want, wantReport, wantRetained = direct(g, ieuler.SolveSpec{Retain: true, Replay: base})
				var replayed stepSum
				report, chained, err := euler.FindCircuitStreamDelta(g, replayed.emit, retained, opts...)
				check("FindCircuitStreamDelta", err, replayed, want, report, wantReport, chained, wantRetained)
				if report.ReusedParts == 0 {
					t.Error("FindCircuitStreamDelta of the unchanged graph reused nothing")
				}

				// The out-of-core leg reads a paged disk CSR of g's file.
				dir := t.TempDir()
				path := filepath.Join(dir, "graph.bin")
				if err := graph.WriteFile(path, g); err != nil {
					t.Fatal(err)
				}
				pg, err := oocgraph.BuildPaged(path, oocgraph.BuildOptions{Dir: dir, PageHalves: 64, MemBytes: 4 * 64 * 16})
				if err != nil {
					t.Fatal(err)
				}
				defer pg.Close()
				want, wantReport, _ = direct(pg, ieuler.SolveSpec{SpillDir: filepath.Join(dir, "direct")})
				var paged stepSum
				report, err = euler.FindCircuitStreamSource(pg, filepath.Join(dir, "facade"), paged.emit, opts...)
				check("FindCircuitStreamSource", err, paged, want, report, wantReport, nil, nil)
				if want != inMemory {
					t.Errorf("paged Solve: circuit %016x, in-memory %016x", want.sum, inMemory.sum)
				}
			})
		}
	}
}

// TestPostmanEntryPointsMatchSolve: FindEulerPath and CoveringTour hand
// the caller's whole resolved spec to Solve, so an explicit assignment and
// validation reach the engine: each result is postman's over a direct
// Solve with that spec, and differs from the default LDG assignment's.
func TestPostmanEntryPointsMatchSolve(t *testing.T) {
	torus := euler.NewTorus(12, 12)
	b := euler.NewBuilder(torus.NumVertices(), int(torus.NumEdges())-1)
	for _, e := range torus.Edges()[1:] {
		b.AddEdge(e.U, e.V)
	}
	g := b.Build() // two odd vertices: the ends of the removed edge
	hash := euler.PartitionHash(g, 4)
	opts := []euler.Option{euler.WithAssignment(hash), euler.WithValidation()}
	spec := ieuler.SolveSpec{Parts: ieuler.DefaultParts, Assign: &hash, Validate: true}
	direct := func(mg *graph.Graph, emit func(graph.Step) error) error {
		_, _, err := ieuler.Solve(context.Background(), mg, spec, emit)
		return err
	}

	path, err := euler.FindEulerPath(g, opts...)
	if err != nil {
		t.Fatalf("FindEulerPath: %v", err)
	}
	wantPath, err := postman.EulerPath(g, direct)
	if err != nil {
		t.Fatalf("postman.EulerPath: %v", err)
	}
	if !slices.Equal(path, wantPath) {
		t.Error("FindEulerPath: path differs from postman.EulerPath over Solve with the same spec")
	}
	if ldg, err := euler.FindEulerPath(g); err != nil {
		t.Fatalf("FindEulerPath (LDG): %v", err)
	} else if slices.Equal(path, ldg) {
		t.Error("FindEulerPath: the hash assignment's path equals the default LDG one")
	}

	tour, err := euler.CoveringTour(g, opts...)
	if err != nil {
		t.Fatalf("CoveringTour: %v", err)
	}
	wantTour, err := postman.CoveringTour(g, direct)
	if err != nil {
		t.Fatalf("postman.CoveringTour: %v", err)
	}
	if !slices.Equal(tour.Steps, wantTour.Steps) || tour.Revisits != wantTour.Revisits {
		t.Error("CoveringTour: tour differs from postman.CoveringTour over Solve with the same spec")
	}
	if err := euler.VerifyTour(g, tour); err != nil {
		t.Fatal(err)
	}
	if ldg, err := euler.CoveringTour(g); err != nil {
		t.Fatalf("CoveringTour (LDG): %v", err)
	} else if slices.Equal(tour.Steps, ldg.Steps) {
		t.Error("CoveringTour: the hash assignment's tour equals the default LDG one")
	}
}

// TestSpillDirCreated: a paged source spills its path bodies under the
// spillDir FindCircuitStreamSource is given, creating it if it does not
// exist yet; a resident graph ignores it.
func TestSpillDirCreated(t *testing.T) {
	g := euler.NewTorus(8, 6)
	dir := t.TempDir()
	path := filepath.Join(dir, "graph.bin")
	if err := graph.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	pg, err := oocgraph.BuildPaged(path, oocgraph.BuildOptions{Dir: dir, PageHalves: 64, MemBytes: 4 * 64 * 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	spillDir := filepath.Join(dir, "missing", "spill")
	var steps []euler.Step
	collect := func(s euler.Step) error { steps = append(steps, s); return nil }
	if _, err := euler.FindCircuitStreamSource(pg, spillDir, collect, euler.WithPartitions(3)); err != nil {
		t.Fatal(err)
	}
	if err := euler.Verify(g, steps); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(spillDir, ieuler.SpillLogName)); err != nil {
		t.Fatalf("paged run left no body log: %v", err)
	}

	unused := filepath.Join(dir, "unused")
	steps = nil
	if _, err := euler.FindCircuitStreamSource(g, unused, collect, euler.WithPartitions(3)); err != nil {
		t.Fatal(err)
	}
	if err := euler.Verify(g, steps); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(unused); !os.IsNotExist(err) {
		t.Fatalf("resident run touched its spillDir: %v", err)
	}
}
