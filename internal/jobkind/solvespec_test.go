package jobkind

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestOptionsSolveSpec pins the one translation from a submission's engine
// options to the solve pipeline's spec.
func TestOptionsSolveSpec(t *testing.T) {
	const dir = "/job/dir"
	cases := []struct {
		name string
		opts Options
		want euler.SolveSpec
	}{
		{"zero", Options{}, euler.SolveSpec{}},
		{"parts", Options{Parts: 7}, euler.SolveSpec{Parts: 7}},
		{"seed", Options{Seed: 11}, euler.SolveSpec{Seed: 11}},
		{"current", Options{Mode: "current"}, euler.SolveSpec{Mode: euler.ModeCurrent}},
		{"dedup", Options{Mode: "dedup"}, euler.SolveSpec{Mode: euler.ModeDedup}},
		{"proposed", Options{Mode: "proposed"}, euler.SolveSpec{Mode: euler.ModeProposed}},
		{"spill", Options{Spill: true}, euler.SolveSpec{SpillDir: dir}},
		{"all", Options{Parts: 3, Mode: "dedup", Seed: 5, Spill: true},
			euler.SolveSpec{Parts: 3, Seed: 5, Mode: euler.ModeDedup, SpillDir: dir}},
	}
	for _, tc := range cases {
		got, err := tc.opts.SolveSpec(dir)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		// DeepEqual also holds the translation to setting nothing else: no
		// assignment, retention, replay, out-of-core switch or executor.
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: SolveSpec = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if _, err := (Options{Mode: "fast"}).SolveSpec(dir); err == nil {
		t.Error("unknown mode translated")
	}
}

// TestNilRunnerHonoursSpill: a kind solved on the library path (nil runner)
// with Options.Spill spills its path bodies to a temp directory that is
// gone when Solve returns.
func TestNilRunnerHonoursSpill(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	spillLogs := func() []string {
		logs, err := filepath.Glob(filepath.Join(tmp, "*", euler.SpillLogName))
		if err != nil {
			t.Fatal(err)
		}
		return logs
	}
	g := gen.Torus(8, 6)
	req := Request{Options: Options{Parts: 3, Spill: true}}
	steps := 0
	_, err := MustGet("euler").Solve(context.Background(), req, g, nil, func(graph.Step) error {
		if steps == 0 && len(spillLogs()) != 1 {
			t.Errorf("spill logs while streaming = %v, want one under a temp dir", spillLogs())
		}
		steps++
		return nil
	})
	if err != nil || int64(steps) != g.NumEdges() {
		t.Fatalf("Solve = %v after %d steps, want %d", err, steps, g.NumEdges())
	}
	if left := spillLogs(); len(left) != 0 {
		t.Fatalf("spill dir not removed: %v", left)
	}
}
