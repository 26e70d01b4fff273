package job

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/sched"
)

// Generator size caps: the service refuses specs whose output would not
// comfortably fit one server, mirroring the upload size limit.
const (
	maxRMATVertices = int64(1) << 22 // 4M vertices
	maxRMATDegree   = 64
	maxTorusSide    = int64(4096)
	maxCliques      = int64(1) << 16
	maxCliqueSize   = int64(99)
	maxGridSide     = int64(512)
	maxGridClosures = 0.5
)

// Upload caps: an EULGRPH1 header declares its counts up front, and the
// graph builder allocates from them, so a tiny malicious body could
// otherwise demand terabytes.  These bound what one server will host.
const (
	MaxUploadVertices = int64(1) << 24 // 16M
	MaxUploadEdges    = int64(1) << 26 // 64M
)

// ValidateUploadCounts bounds the declared vertex and edge counts of an
// uploaded graph before anything is allocated from them.
func ValidateUploadCounts(vertices, edges uint64) error {
	if vertices > uint64(MaxUploadVertices) {
		return fmt.Errorf("uploaded graph declares %d vertices, cap is %d", vertices, MaxUploadVertices)
	}
	if edges > uint64(MaxUploadEdges) {
		return fmt.Errorf("uploaded graph declares %d edges, cap is %d", edges, MaxUploadEdges)
	}
	return nil
}

// GenSpec describes a generated input graph: one of the paper's three
// Eulerian families (Sec. 4.2) or the street-grid family, whose odd
// intersections make it covering-tour (postman) input.
type GenSpec struct {
	Family string `json:"family"` // "rmat", "torus", "cliques", or "grid"

	// RMAT parameters (Graph500 skew, Eulerised largest component).
	Vertices int64 `json:"vertices,omitempty"`
	Degree   int   `json:"degree,omitempty"`
	Seed     int64 `json:"seed,omitempty"`

	// Torus and street-grid dimensions.
	Width  int64 `json:"width,omitempty"`
	Height int64 `json:"height,omitempty"`

	// Ring-of-cliques parameters (C must be odd).
	K int64 `json:"k,omitempty"`
	C int64 `json:"c,omitempty"`

	// Closures is the street-grid closed-street fraction (grid also
	// reads Width, Height, and Seed).
	Closures float64 `json:"closures,omitempty"`
}

// Validate checks family and parameter ranges, applying defaults in
// place (zero values take the family's documented default).
func (g *GenSpec) Validate() error {
	switch g.Family {
	case "rmat":
		if g.Vertices == 0 {
			g.Vertices = 100_000
		}
		if g.Degree == 0 {
			g.Degree = 5
		}
		if g.Seed == 0 {
			g.Seed = 42
		}
		if g.Vertices < 2 || g.Vertices > maxRMATVertices {
			return fmt.Errorf("rmat vertices %d out of range [2, %d]", g.Vertices, maxRMATVertices)
		}
		if g.Degree < 1 || g.Degree > maxRMATDegree {
			return fmt.Errorf("rmat degree %d out of range [1, %d]", g.Degree, maxRMATDegree)
		}
	case "torus":
		if g.Width == 0 {
			g.Width = 100
		}
		if g.Height == 0 {
			g.Height = 100
		}
		// The generator requires sides >= 3 so wrap-around edges are
		// not parallel duplicates.
		if g.Width < 3 || g.Width > maxTorusSide || g.Height < 3 || g.Height > maxTorusSide {
			return fmt.Errorf("torus %dx%d out of range [3, %d] per side", g.Width, g.Height, maxTorusSide)
		}
	case "cliques":
		if g.K == 0 {
			g.K = 16
		}
		if g.C == 0 {
			g.C = 9
		}
		if g.K < 1 || g.K > maxCliques {
			return fmt.Errorf("cliques k %d out of range [1, %d]", g.K, maxCliques)
		}
		if g.C < 3 || g.C > maxCliqueSize || g.C%2 == 0 {
			return fmt.Errorf("clique size %d must be odd and in [3, %d]", g.C, maxCliqueSize)
		}
	case "grid":
		if g.Width == 0 {
			g.Width = 20
		}
		if g.Height == 0 {
			g.Height = 20
		}
		if g.Seed == 0 {
			g.Seed = 1
		}
		if g.Width < 2 || g.Width > maxGridSide || g.Height < 2 || g.Height > maxGridSide {
			return fmt.Errorf("grid %dx%d out of range [2, %d] per side", g.Width, g.Height, maxGridSide)
		}
		if g.Closures < 0 || g.Closures > maxGridClosures {
			return fmt.Errorf("grid closures %v out of range [0, %v]", g.Closures, maxGridClosures)
		}
	case "":
		return fmt.Errorf("generator family is required")
	default:
		return fmt.Errorf("unknown generator family %q (want rmat, torus, cliques, or grid)", g.Family)
	}
	return nil
}

// Build materialises the generated graph.
func (g *GenSpec) Build() (*graph.Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	switch g.Family {
	case "rmat":
		eg, _ := gen.EulerianRMAT(gen.RMATParams{
			Vertices: g.Vertices, AvgDegree: g.Degree,
			A: 0.57, B: 0.19, C: 0.19, Seed: g.Seed,
		})
		return eg, nil
	case "torus":
		return gen.Torus(g.Width, g.Height), nil
	case "cliques":
		return gen.RingOfCliques(g.K, g.C), nil
	case "grid":
		return gen.StreetGrid(g.Width, g.Height, g.Closures, g.Seed), nil
	}
	return nil, fmt.Errorf("unknown generator family %q", g.Family)
}

// Spec is a job submission: the workload kind, its input (a generator
// spec or uploaded EULGRPH1 graph for graph-backed kinds, a kind spec
// for sequence kinds), and the engine options.  Where path bodies live
// is not an option: a paged upload spills them to the job directory and
// every other input keeps them in memory.  Unknown JSON fields, such as
// the retired "spill", are ignored.
type Spec struct {
	// Kind names the workload family ("euler", "postman", "debruijn",
	// "superwalk"); "" means euler.  Validate canonicalises it.
	Kind string `json:"kind,omitempty"`

	// Generator describes a generated input; nil for uploads and for
	// graphless kinds.
	Generator *GenSpec `json:"generator,omitempty"`
	// Uploaded marks jobs whose input was POSTed as an EULGRPH1 body.
	Uploaded bool `json:"uploaded,omitempty"`
	// GraphFile is the server-side path of the uploaded graph; never
	// serialised to clients.
	GraphFile string `json:"-"`
	// DeclaredEdges is the edge count an uploaded body declared in its
	// header, recorded at submit so fingerprinting and out-of-core
	// routing never reopen the file; never serialised to clients.
	DeclaredEdges int64 `json:"-"`

	// Parts is the partition count (0 = engine default).
	Parts int32 `json:"parts,omitempty"`
	// Mode is the remote-edge strategy: "current" (default), "dedup",
	// or "proposed".
	Mode string `json:"mode,omitempty"`
	// Seed drives the partitioner (0 = engine default).
	Seed int64 `json:"seed,omitempty"`

	// DeBruijn and Superwalk are the sequence kinds' specs; exactly the
	// matching kind may carry one.
	DeBruijn  *jobkind.DeBruijnSpec  `json:"debruijn,omitempty"`
	Superwalk *jobkind.SuperwalkSpec `json:"superwalk,omitempty"`

	// Base and Diff make the submission a delta: the input graph is the
	// cached base identified by its fingerprint, patched by the diff.
	// Delta jobs carry no generator/upload and inherit the base's engine
	// options (parts, mode, seed are part of the base fingerprint).
	Base string    `json:"base,omitempty"`
	Diff *DiffSpec `json:"diff,omitempty"`
}

// DiffSpec is an edge diff against a base graph: pairs to append and
// pairs to remove (one copy per listed pair, matched unordered).
type DiffSpec struct {
	Add    [][2]int64 `json:"add,omitempty"`
	Remove [][2]int64 `json:"remove,omitempty"`
}

// MaxDiffEdges bounds one diff's size: a diff approaching the graph size
// is a full submit wearing a trench coat, and the engine would not reuse
// anything anyway.
const MaxDiffEdges = 4096

// IsDelta reports whether the spec is a delta submission.
func (s *Spec) IsDelta() bool { return s.Base != "" || s.Diff != nil }

// KindRequest projects the spec onto the kind registry's request form.
// The kind-spec pointers are shared, so jobkind.Kind.Normalize writes
// defaults back into the spec (like GenSpec.Validate does).
func (s *Spec) KindRequest() jobkind.Request {
	return jobkind.Request{
		Options:   jobkind.Options{Parts: s.Parts, Mode: s.Mode, Seed: s.Seed},
		DeBruijn:  s.DeBruijn,
		Superwalk: s.Superwalk,
	}
}

// FingerprintOptions is what the spec adds to its input's fingerprint:
// engine options, kind and kind material.  Validate makes Kind canonical.
func (s *Spec) FingerprintOptions() sched.SolveOptions {
	return sched.SolveOptions{
		Parts: s.Parts, Mode: s.Mode, Seed: s.Seed,
		Kind: s.Kind, KindMaterial: jobkind.MustGet(s.Kind).Material(s.KindRequest()),
	}
}

// Clone returns a deep copy: Validate writes defaults through the
// spec's pointers, and callers holding declarative templates (the load
// registry) must keep theirs as declared.
func (s Spec) Clone() Spec {
	if s.Generator != nil {
		g := *s.Generator
		s.Generator = &g
	}
	if s.DeBruijn != nil {
		d := *s.DeBruijn
		s.DeBruijn = &d
	}
	if s.Superwalk != nil {
		sw := *s.Superwalk
		sw.Reads = append([]string(nil), sw.Reads...)
		s.Superwalk = &sw
	}
	if s.Diff != nil {
		d := DiffSpec{
			Add:    append([][2]int64(nil), s.Diff.Add...),
			Remove: append([][2]int64(nil), s.Diff.Remove...),
		}
		s.Diff = &d
	}
	return s
}

// Validate checks the spec against its kind, applying kind and
// generator defaults in place.  Kind rejections are *jobkind.SpecError
// values, which the HTTP layer renders as structured 400s.
func (s *Spec) Validate() error {
	k, err := jobkind.Get(s.Kind)
	if err != nil {
		return err
	}
	s.Kind = k.Name()
	if s.IsDelta() {
		return s.validateDelta(k)
	}
	if k.NeedsGraph() {
		if (s.Generator == nil) == (s.GraphFile == "") {
			return fmt.Errorf("exactly one of generator spec or uploaded graph is required")
		}
		if s.Generator != nil {
			if err := s.Generator.Validate(); err != nil {
				return err
			}
		}
	} else if s.Generator != nil || s.GraphFile != "" {
		return &jobkind.SpecError{
			Code: "invalid_kind_spec", Kind: s.Kind,
			Msg: fmt.Sprintf("%s jobs take no input graph", s.Kind),
		}
	}
	req := s.KindRequest()
	if err := k.Normalize(&req); err != nil {
		return err
	}
	s.DeBruijn, s.Superwalk = req.DeBruijn, req.Superwalk
	return nil
}

// validateDelta checks the delta-specific rules: per-kind opt-in, no
// other input source, no engine-option overrides (deltas inherit the
// base's, which its fingerprint already pins), and a well-formed diff.
func (s *Spec) validateDelta(k jobkind.Kind) error {
	if !jobkind.SupportsDelta(k) {
		return &jobkind.SpecError{
			Code: "delta_unsupported", Kind: s.Kind,
			Msg: fmt.Sprintf("%s jobs do not accept delta submissions", s.Kind),
		}
	}
	if s.Base == "" {
		return fmt.Errorf("delta submission requires a base fingerprint")
	}
	if s.Diff == nil || len(s.Diff.Add)+len(s.Diff.Remove) == 0 {
		return fmt.Errorf("delta submission requires a non-empty diff")
	}
	if s.Generator != nil || s.GraphFile != "" {
		return fmt.Errorf("delta submission takes no generator or uploaded graph")
	}
	if s.Parts != 0 || s.Mode != "" || s.Seed != 0 {
		return fmt.Errorf("delta submission inherits parts/mode/seed from its base")
	}
	if s.DeBruijn != nil || s.Superwalk != nil {
		return fmt.Errorf("delta submission takes no kind-specific spec")
	}
	if n := len(s.Diff.Add) + len(s.Diff.Remove); n > MaxDiffEdges {
		return fmt.Errorf("diff lists %d edges, cap is %d", n, MaxDiffEdges)
	}
	for _, pairs := range [][][2]int64{s.Diff.Add, s.Diff.Remove} {
		for _, p := range pairs {
			if p[0] < 0 || p[1] < 0 {
				return fmt.Errorf("diff edge [%d %d] has a negative endpoint", p[0], p[1])
			}
			if p[0] == p[1] {
				return fmt.Errorf("diff edge [%d %d] is a self loop", p[0], p[1])
			}
			// Apply sizes the patched graph by its largest endpoint.
			if p[0] >= MaxUploadVertices || p[1] >= MaxUploadVertices {
				return fmt.Errorf("diff edge [%d %d] has an endpoint at or over the %d-vertex cap", p[0], p[1], MaxUploadVertices)
			}
		}
	}
	return nil
}

// BuildGraph materialises the input graph for the spec, generating or
// reading the uploaded file as appropriate; graphless kinds have none
// and get nil.
func (s *Spec) BuildGraph() (*graph.Graph, error) {
	if s.Generator != nil {
		return s.Generator.Build()
	}
	if s.GraphFile != "" {
		return graph.ReadFile(s.GraphFile)
	}
	return nil, nil
}
