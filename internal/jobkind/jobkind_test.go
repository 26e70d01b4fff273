package jobkind

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seq"
)

func TestRegistry(t *testing.T) {
	if got := Names(); len(got) != 4 ||
		got[0] != "debruijn" || got[1] != "euler" || got[2] != "postman" || got[3] != "superwalk" {
		t.Fatalf("Names() = %v", got)
	}
	k, err := Get("")
	if err != nil || k.Name() != DefaultName {
		t.Fatalf(`Get("") = %v, %v`, k, err)
	}
	for _, name := range Names() {
		k, err := Get(name)
		if err != nil || k.Name() != name {
			t.Fatalf("Get(%q) = %v, %v", name, k, err)
		}
	}
	_, err = Get("eulerian")
	var spec *SpecError
	if !errors.As(err, &spec) || spec.Code != "unknown_kind" || spec.Kind != "eulerian" {
		t.Fatalf("unknown kind error = %#v", err)
	}
	if !strings.Contains(spec.Msg, "debruijn") {
		t.Errorf("unknown-kind message does not list the registry: %q", spec.Msg)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet on unknown kind did not panic")
		}
	}()
	MustGet("nope")
}

// mustNormalize runs Normalize and fails the test on error.
func mustNormalize(t *testing.T, kind string, req *Request) {
	t.Helper()
	if err := MustGet(kind).Normalize(req); err != nil {
		t.Fatalf("%s Normalize: %v", kind, err)
	}
}

func TestNormalizeGraphKinds(t *testing.T) {
	for _, kind := range []string{"euler", "postman"} {
		req := &Request{Options: Options{Parts: 4, Mode: "dedup", Seed: 9}}
		mustNormalize(t, kind, req)

		for name, bad := range map[string]Request{
			"negative parts": {Options: Options{Parts: -1}},
			"bad mode":       {Options: Options{Mode: "fast"}},
			"debruijn spec":  {DeBruijn: &DeBruijnSpec{}},
			"superwalk spec": {Superwalk: &SuperwalkSpec{}},
		} {
			b := bad
			err := MustGet(kind).Normalize(&b)
			var spec *SpecError
			if !errors.As(err, &spec) || spec.Code != "invalid_kind_spec" || spec.Kind != kind {
				t.Errorf("%s/%s: error = %#v", kind, name, err)
			}
		}
	}
}

func TestNormalizeDeBruijn(t *testing.T) {
	req := &Request{}
	mustNormalize(t, "debruijn", req)
	if req.DeBruijn == nil || req.DeBruijn.Alphabet != 2 || req.DeBruijn.Length != 8 {
		t.Fatalf("defaults = %+v", req.DeBruijn)
	}
	for name, bad := range map[string]Request{
		"engine options": {Options: Options{Parts: 2}},
		"superwalk spec": {Superwalk: &SuperwalkSpec{}},
		"huge":           {DeBruijn: &DeBruijnSpec{Alphabet: 10, Length: 10}},
		"unary alphabet": {DeBruijn: &DeBruijnSpec{Alphabet: 1, Length: 4}},
	} {
		b := bad
		err := MustGet("debruijn").Normalize(&b)
		var spec *SpecError
		if !errors.As(err, &spec) || spec.Kind != "debruijn" {
			t.Errorf("%s: error = %#v", name, err)
		}
	}
}

func TestNormalizeSuperwalk(t *testing.T) {
	req := &Request{}
	mustNormalize(t, "superwalk", req)
	s := req.Superwalk
	if s == nil || s.GenomeLen != 2000 || s.K != 15 || s.Seed != 1 {
		t.Fatalf("defaults = %+v", s)
	}

	// Explicit reads are canonically sorted: submission order must not
	// change the job's identity or its material.
	a := &Request{Superwalk: &SuperwalkSpec{Reads: []string{"GTA", "ACG", "CGT", "TAC"}}}
	b := &Request{Superwalk: &SuperwalkSpec{Reads: []string{"ACG", "TAC", "GTA", "CGT"}}}
	mustNormalize(t, "superwalk", a)
	mustNormalize(t, "superwalk", b)
	if fmt.Sprint(a.Superwalk.Reads) != fmt.Sprint(b.Superwalk.Reads) {
		t.Fatalf("read order survived normalisation: %v vs %v", a.Superwalk.Reads, b.Superwalk.Reads)
	}
	if string(MustGet("superwalk").Material(*a)) != string(MustGet("superwalk").Material(*b)) {
		t.Fatal("shuffled read multisets produced different material")
	}

	for name, bad := range map[string]Request{
		"engine options": {Options: Options{Seed: 3}},
		"debruijn spec":  {DeBruijn: &DeBruijnSpec{}},
		"mixed forms":    {Superwalk: &SuperwalkSpec{Reads: []string{"ACG"}, K: 3}},
		"short reads":    {Superwalk: &SuperwalkSpec{Reads: []string{"A"}}},
		"ragged reads":   {Superwalk: &SuperwalkSpec{Reads: []string{"ACG", "ACGT"}}},
		"bad base":       {Superwalk: &SuperwalkSpec{Reads: []string{"ACN"}}},
		"tiny genome":    {Superwalk: &SuperwalkSpec{GenomeLen: 10, K: 15}},
		"huge genome":    {Superwalk: &SuperwalkSpec{GenomeLen: seq.MaxGenomeLen + 1}},
	} {
		bb := bad
		err := MustGet("superwalk").Normalize(&bb)
		var spec *SpecError
		if !errors.As(err, &spec) || spec.Kind != "superwalk" {
			t.Errorf("%s: error = %#v", name, err)
		}
	}
}

// solve runs a kind end-to-end on the library path (nil runner) and
// returns the collected sink steps.
func solve(t *testing.T, kind string, req Request, g *graph.Graph) []graph.Step {
	t.Helper()
	k := MustGet(kind)
	if err := k.Normalize(&req); err != nil {
		t.Fatal(err)
	}
	var steps []graph.Step
	err := k.Solve(context.Background(), req, g, nil, func(st graph.Step) error {
		steps = append(steps, st)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// roundTrip pushes every step through the kind's codec and back.
func roundTrip(t *testing.T, kind string, steps []graph.Step) {
	t.Helper()
	k := MustGet(kind)
	var buf []byte
	for i, st := range steps {
		buf = k.AppendLine(buf[:0], st)
		if buf[len(buf)-1] != '\n' {
			t.Fatalf("%s line %d has no trailing newline", kind, i)
		}
		back, err := k.ParseLine(buf[:len(buf)-1])
		if err != nil {
			t.Fatalf("%s line %d: %v", kind, i, err)
		}
		if back != st {
			t.Fatalf("%s line %d: %+v round-tripped to %+v", kind, i, st, back)
		}
	}
}

func TestEulerSolveVerifyCodec(t *testing.T) {
	g := gen.Torus(5, 4)
	req := Request{Options: Options{Parts: 3, Seed: 2}}
	steps := solve(t, "euler", req, g)
	if int64(len(steps)) != g.NumEdges() {
		t.Fatalf("%d steps for %d edges", len(steps), g.NumEdges())
	}
	if err := MustGet("euler").Verify(req, g, steps); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, "euler", steps)

	// The euler line format is frozen: historical clients parse it.
	line := MustGet("euler").AppendLine(nil, graph.Step{Edge: 7, From: 1, To: 2})
	if string(line) != "{\"edge\":7,\"from\":1,\"to\":2}\n" {
		t.Fatalf("euler line = %q", line)
	}
	if _, err := MustGet("euler").ParseLine([]byte(`{"edge":1,"from":0,"to":1,"revisit":true}`)); err == nil {
		t.Fatal("euler accepted a revisit flag")
	}
	// Corrupted circuit fails verification.
	steps[0], steps[1] = steps[1], steps[0]
	if err := MustGet("euler").Verify(req, g, steps); err == nil {
		t.Fatal("swapped circuit verified")
	}
}

func TestPostmanSolveVerifyCodec(t *testing.T) {
	g := gen.StreetGrid(6, 5, 0.1, 4)
	req := Request{Options: Options{Parts: 3}}
	steps := solve(t, "postman", req, g)
	if int64(len(steps)) <= g.NumEdges() {
		t.Fatalf("%d steps covering %d edges: no deadheading on a street grid?", len(steps), g.NumEdges())
	}
	var revisits int
	for _, st := range steps {
		if st.Edge < 0 {
			revisits++
		}
	}
	if revisits == 0 {
		t.Fatal("no revisit-encoded steps in the sink stream")
	}
	if err := MustGet("postman").Verify(req, g, steps); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, "postman", steps)

	// The revisit wire form is explicit.
	line := MustGet("postman").AppendLine(nil, graph.Step{Edge: -8, From: 3, To: 4})
	if string(line) != "{\"edge\":7,\"from\":3,\"to\":4,\"revisit\":true}\n" {
		t.Fatalf("revisit line = %q", line)
	}
	// Dropping a step breaks the tour.
	if err := MustGet("postman").Verify(req, g, steps[:len(steps)-1]); err == nil {
		t.Fatal("truncated tour verified")
	}
}

func TestDeBruijnSolveVerifyCodec(t *testing.T) {
	req := Request{DeBruijn: &DeBruijnSpec{Alphabet: 2, Length: 8}}
	steps := solve(t, "debruijn", req, nil)
	if len(steps) != 256 {
		t.Fatalf("B(2,8) emitted %d symbols", len(steps))
	}
	if err := MustGet("debruijn").Verify(req, nil, steps); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, "debruijn", steps)
	steps[0].Edge = 9
	if err := MustGet("debruijn").Verify(req, nil, steps); err == nil {
		t.Fatal("out-of-alphabet symbol verified")
	}
	steps[0].Edge = 1 << 20
	if err := MustGet("debruijn").Verify(req, nil, steps); err == nil {
		t.Fatal("out-of-byte-range symbol verified")
	}
}

func TestSuperwalkSolveVerifyCodec(t *testing.T) {
	req := Request{Superwalk: &SuperwalkSpec{GenomeLen: 300, K: 9, Seed: 6}}
	steps := solve(t, "superwalk", req, nil)
	if len(steps) != 300 {
		t.Fatalf("assembled %d bases from a 300-base genome", len(steps))
	}
	if err := MustGet("superwalk").Verify(req, nil, steps); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, "superwalk", steps)
	steps[10].Edge = 'X'
	if err := MustGet("superwalk").Verify(req, nil, steps); err == nil {
		t.Fatal("non-ACGT base verified")
	}
	if _, err := MustGet("superwalk").ParseLine([]byte(`{"base":"AC"}`)); err == nil {
		t.Fatal("two-byte base parsed")
	}
}

func TestSolveObservesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{DeBruijn: &DeBruijnSpec{Alphabet: 2, Length: 8}}
	mustNormalize(t, "debruijn", &req)
	err := MustGet("debruijn").Solve(ctx, req, nil, nil, func(graph.Step) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
}

func TestMaterialSeparatesSpecs(t *testing.T) {
	db := func(k, n int64) string {
		return string(MustGet("debruijn").Material(Request{DeBruijn: &DeBruijnSpec{Alphabet: k, Length: n}}))
	}
	if db(2, 8) == db(2, 9) || db(2, 8) == db(3, 8) {
		t.Fatal("debruijn material does not separate specs")
	}
	sw := func(s SuperwalkSpec) string {
		return string(MustGet("superwalk").Material(Request{Superwalk: &s}))
	}
	if sw(SuperwalkSpec{GenomeLen: 100, K: 5, Seed: 1}) == sw(SuperwalkSpec{GenomeLen: 100, K: 5, Seed: 2}) {
		t.Fatal("superwalk material ignores the seed")
	}
	if sw(SuperwalkSpec{Reads: []string{"ACG", "CGT"}}) == sw(SuperwalkSpec{Reads: []string{"ACGC", "GT"}}) {
		t.Fatal("read boundaries are not length-framed in the material")
	}
}
