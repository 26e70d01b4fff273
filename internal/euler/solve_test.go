package euler

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/verify"
)

// untouchedSource fails the test on any read: a solve that must stop
// before partitioning never looks at its input.
type untouchedSource struct{ t *testing.T }

func (s untouchedSource) NumVertices() int64 { s.t.Error("NumVertices read"); return 0 }
func (s untouchedSource) NumEdges() int64    { s.t.Error("NumEdges read"); return 0 }
func (s untouchedSource) Degree(graph.VertexID) int64 {
	s.t.Error("Degree read")
	return 0
}
func (s untouchedSource) Adj(graph.VertexID) []graph.Half { s.t.Error("Adj read"); return nil }
func (s untouchedSource) ForEachEdge(func(graph.Edge) error) error {
	s.t.Error("ForEachEdge read")
	return nil
}

func TestSolveCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, record, err := Solve(ctx, untouchedSource{t}, SolveSpec{Retain: true}, func(Step) error {
		t.Error("emit called")
		return nil
	})
	if !errors.Is(err, context.Canceled) || report != nil || record != nil {
		t.Fatalf("Solve = %v, %v, %v; want context.Canceled and nothing else", report, record, err)
	}
}

// TestSolveCancelledMidStream: a cancellation that lands during Phase 3 is
// observed before the next step reaches emit.
func TestSolveCancelledMidStream(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, _, err := Solve(ctx, gen.Torus(8, 8), SolveSpec{Parts: 2}, func(Step) error {
		emitted++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || emitted != 1 {
		t.Fatalf("Solve = %v after %d steps; want context.Canceled after 1", err, emitted)
	}
}

// pagedLike hides a resident graph behind the bare graph.Source seam, the
// way a paged disk CSR presents itself to Solve.
type pagedLike struct{ graph.Source }

func solveSteps(t *testing.T, src graph.Source, spec SolveSpec) ([]Step, *RunReport, *RunRecord) {
	t.Helper()
	var steps []Step
	report, record, err := Solve(context.Background(), src, spec, func(s Step) error {
		steps = append(steps, s)
		return nil
	})
	if err != nil {
		t.Fatalf("Solve(%+v): %v", spec, err)
	}
	return steps, report, record
}

// TestSolveStoreStage pins where each run puts its logs: nowhere for a
// resident graph, even with a spill dir set, and, for a source that is not
// a resident graph, under a (created) spill dir or in a temp dir that is
// gone on return.
func TestSolveStoreStage(t *testing.T) {
	g := gen.Torus(10, 6)
	want, _, _ := solveSteps(t, g, SolveSpec{Parts: 3})
	if err := verify.Circuit(g, want); err != nil {
		t.Fatal(err)
	}
	same := func(name string, got []Step) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d steps, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: step %d = %v, want %v", name, i, got[i], want[i])
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "missing")
	got, _, _ := solveSteps(t, g, SolveSpec{Parts: 3, SpillDir: filepath.Join(dir, "spill")})
	same("resident, spill dir set", got)
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("resident run created its spill dir: %v", err)
	}

	oocDir := filepath.Join(t.TempDir(), "ooc")
	got, report, _ := solveSteps(t, pagedLike{g}, SolveSpec{Parts: 3, SpillDir: oocDir})
	same("out of core", got)
	for _, log := range []string{SpillLogName, "leaf-init.log"} {
		if _, err := os.Stat(filepath.Join(oocDir, log)); err != nil {
			t.Fatalf("out-of-core run left no %s: %v", log, err)
		}
	}
	if report == nil {
		t.Fatal("out-of-core run returned no report")
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	got, _, _ = solveSteps(t, pagedLike{g}, SolveSpec{Parts: 3})
	same("out of core, temp dir", got)
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("out-of-core temp dir not removed: %v", left)
	}
}

// TestSolveExecutor: an executor replaces Run for Phases 1–2 and nothing
// else; it is refused the runs it cannot serve.
func TestSolveExecutor(t *testing.T) {
	g := gen.RingOfCliques(5, 5)
	want, _, _ := solveSteps(t, g, SolveSpec{Parts: 4, Seed: 3, Mode: ModeDedup})

	calls := 0
	exec := func(_ context.Context, eg *graph.Graph, a partition.Assignment, cfg Config) (*Result, error) {
		calls++
		if eg != g || a.Parts != 4 || cfg.Mode != ModeDedup {
			t.Errorf("executor got graph %p, %d parts, mode %v", eg, a.Parts, cfg.Mode)
		}
		return Run(eg, a, cfg)
	}
	got, _, _ := solveSteps(t, g, SolveSpec{Parts: 4, Seed: 3, Mode: ModeDedup, Exec: exec})
	if calls != 1 || len(got) != len(want) {
		t.Fatalf("executor called %d times, %d steps; want 1 call, %d steps", calls, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d = %v through the executor, want %v", i, got[i], want[i])
		}
	}

	for _, c := range []struct {
		src  graph.Source
		spec SolveSpec
	}{
		{g, SolveSpec{Exec: exec, Retain: true}},
		{pagedLike{g}, SolveSpec{Exec: exec}},
	} {
		_, _, err := Solve(context.Background(), c.src, c.spec, func(Step) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "executor") {
			t.Errorf("Solve(%T, %+v) = %v, want the executor refusal", c.src, c.spec, err)
		}
	}
	if calls != 1 {
		t.Fatalf("a refused spec reached the executor")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range allModes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeCurrent {
		t.Errorf(`ParseMode("") = %v, %v; want the default`, m, err)
	}
	if _, err := ParseMode("fast"); err == nil {
		t.Error("unknown mode parsed")
	}
}
