package jobkind

import (
	"reflect"
	"testing"

	"repro/internal/euler"
)

// TestOptionsSolveSpec pins the one translation from a submission's engine
// options to the solve pipeline's spec.
func TestOptionsSolveSpec(t *testing.T) {
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
		{"all", Options{Parts: 3, Mode: "dedup", Seed: 5},
			euler.SolveSpec{Parts: 3, Seed: 5, Mode: euler.ModeDedup}},
	}
	for _, tc := range cases {
		got, err := tc.opts.SolveSpec()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		// DeepEqual also holds the translation to setting nothing else: no
		// assignment, spill directory, retention, replay or executor.
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: SolveSpec = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if _, err := (Options{Mode: "fast"}).SolveSpec(); err == nil {
		t.Error("unknown mode translated")
	}
}
