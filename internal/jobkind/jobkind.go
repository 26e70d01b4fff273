// Package jobkind is the workload-family registry: the single place
// where a served job kind plugs in its spec validation/normalization,
// canonical fingerprint material, solver invocation, result-stream
// codec, and result verification.
//
// Four kinds ship today, all powered by the paper's partition-centric
// Euler machinery or its direct generalisations:
//
//   - "euler" (the default): an Euler circuit of an Eulerian input
//     graph, streamed as {"edge","from","to"} steps.
//   - "postman": a covering tour (Chinese postman) of a connected but
//     non-Eulerian graph; steps may carry "revisit":true for
//     deadheading traversals, so the tour is longer than the edge set.
//   - "debruijn": a de Bruijn sequence B(k, n), streamed one
//     {"sym":s} symbol per line.
//   - "superwalk": a DNA-assembly superwalk over a read set (explicit
//     or a shredded synthetic genome), streamed one {"base":"A"} line
//     per base.
//
// Every kind shares one persistence contract: results are framed as
// graph.Step values over the existing spill-backed sink (sequence kinds
// pack one symbol/base into Step.Edge; postman packs the revisit flag
// into the edge's sign), so the scheduler's content-addressed result
// cache copies and replays any kind's stream without knowing the kind.
// The HTTP layer renders steps to NDJSON through the kind's codec.
// Graph-backed kinds reach the engine only through a GraphRunner, the
// circuit runner postman's EulerPath and CoveringTour take as well.
package jobkind

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/euler"
	"repro/internal/graph"
)

// DefaultName is the kind an empty spec resolves to.
const DefaultName = "euler"

// Options are the engine knobs shared by the graph-backed kinds;
// sequence kinds must leave all of them zero.
type Options struct {
	Parts int32
	Mode  string
	Seed  int64
}

// Request is the kind-relevant portion of one submission: the engine
// options plus whichever kind-specific spec the kind consumes.
// Normalize validates it and writes defaults in place.
type Request struct {
	Options   Options
	DeBruijn  *DeBruijnSpec
	Superwalk *SuperwalkSpec
}

// SpecError is a structured kind/spec rejection, rendered by the HTTP
// layer as a 400 with machine-readable code ("unknown_kind" or
// "invalid_kind_spec") and kind fields, consistent with the scheduler's
// 429/503 bodies.
type SpecError struct {
	Code string
	Kind string
	Msg  string
}

// Error implements error.
func (e *SpecError) Error() string { return e.Msg }

func badSpec(kind, format string, args ...any) *SpecError {
	return &SpecError{Code: "invalid_kind_spec", Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// GraphRunner computes an Euler circuit of g, streaming steps through
// emit.  It carries the context and engine options its maker fixed.  The
// serving layer injects a call to its solver here (cluster coordinators
// fan the run out over worker nodes) and keeps the engine report itself;
// a nil runner makes the kind solve in-process via solveLocal.
type GraphRunner func(g *graph.Graph, emit func(graph.Step) error) error

// Kind is one workload family's plug-in surface.
type Kind interface {
	// Name is the registry key and the wire value of the spec's "kind"
	// field.
	Name() string
	// NeedsGraph reports whether the kind consumes an input graph
	// (generator spec or upload); sequence kinds are graphless.
	NeedsGraph() bool
	// Normalize validates the request and writes kind defaults in
	// place; rejections are *SpecError values.
	Normalize(req *Request) error
	// Material returns the kind-specific canonical fingerprint bytes of
	// a normalised request.  The kind name itself and the engine options
	// are hashed by sched.FingerprintGraph; Material covers only what
	// the kind adds (nil when the graph and engine options say it all).
	Material(req Request) []byte
	// Solve executes a normalised request, streaming the encoded result
	// through emit and observing ctx.  g is the built input graph (nil
	// for graphless kinds); graph-backed kinds hand run the graph whose
	// circuit they need (nil = solve in-process under ctx).
	Solve(ctx context.Context, req Request, g *graph.Graph, run GraphRunner, emit func(graph.Step) error) error
	// Verify checks a decoded result stream against the request (and
	// input graph, when there is one); the load runner re-verifies
	// every returned result through this.
	Verify(req Request, g *graph.Graph, steps []graph.Step) error
	// AppendLine appends one step's NDJSON line (with trailing newline)
	// to dst, and ParseLine is its inverse over one line without the
	// newline.
	AppendLine(dst []byte, st graph.Step) []byte
	ParseLine(line []byte) (graph.Step, error)
}

// DeltaCapable is the optional opt-in for edge-diff (delta) submissions:
// a kind implementing it with a true return accepts a base fingerprint
// plus diff in place of an input graph.  Only graph-backed kinds whose
// solve path can retain and replay engine state qualify; everything else
// is rejected with a structured 400 delta_unsupported.
type DeltaCapable interface {
	SupportsDelta() bool
}

// SupportsDelta reports whether k opted into delta submissions.
func SupportsDelta(k Kind) bool {
	dc, ok := k.(DeltaCapable)
	return ok && dc.SupportsDelta()
}

var registry = map[string]Kind{
	"euler":     eulerKind{},
	"postman":   postmanKind{},
	"debruijn":  debruijnKind{},
	"superwalk": superwalkKind{},
}

// Get resolves a kind name ("" means DefaultName).  Unknown names come
// back as a *SpecError with code "unknown_kind".
func Get(name string) (Kind, error) {
	if name == "" {
		name = DefaultName
	}
	k, ok := registry[name]
	if !ok {
		return nil, &SpecError{
			Code: "unknown_kind",
			Kind: name,
			Msg:  fmt.Sprintf("unknown job kind %q (want %s)", name, strings.Join(Names(), ", ")),
		}
	}
	return k, nil
}

// MustGet is Get for names the caller already validated.
func MustGet(name string) Kind {
	k, err := Get(name)
	if err != nil {
		panic(err)
	}
	return k
}

// Names returns the registered kind names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SolveSpec is the one translation of a submission's engine options into
// the solve pipeline's spec.
func (o Options) SolveSpec() (euler.SolveSpec, error) {
	mode, err := euler.ParseMode(o.Mode)
	if err != nil {
		return euler.SolveSpec{}, err
	}
	return euler.SolveSpec{Parts: o.Parts, Seed: o.Seed, Mode: mode}, nil
}

// solveLocal returns the in-process GraphRunner for ctx and the given
// engine options: euler.Solve over goroutine workers, exactly what a
// standalone eulerd runs.  Library clients (the examples) and kinds
// handed a nil runner use it.
func solveLocal(ctx context.Context, opts Options) GraphRunner {
	return func(g *graph.Graph, emit func(graph.Step) error) error {
		spec, err := opts.SolveSpec()
		if err != nil {
			return err
		}
		_, _, err = euler.Solve(ctx, g, spec, emit)
		return err
	}
}

// normalizeEngineOptions is the shared Normalize logic of the
// graph-backed kinds.
func normalizeEngineOptions(kind string, req *Request) error {
	if req.DeBruijn != nil {
		return badSpec(kind, "%s jobs take no debruijn spec", kind)
	}
	if req.Superwalk != nil {
		return badSpec(kind, "%s jobs take no superwalk spec", kind)
	}
	if req.Options.Parts < 0 {
		return badSpec(kind, "parts %d < 0", req.Options.Parts)
	}
	if _, err := euler.ParseMode(req.Options.Mode); err != nil {
		return badSpec(kind, "%v", err)
	}
	return nil
}

// requireNoEngineOptions is the shared Normalize guard of the sequence
// kinds: their output is fully determined by the kind spec, so engine
// knobs would silently not apply — reject them instead.
func requireNoEngineOptions(kind string, o Options) error {
	if o.Parts != 0 || o.Mode != "" || o.Seed != 0 {
		return badSpec(kind, "%s jobs take no engine options (parts, mode, seed)", kind)
	}
	return nil
}
