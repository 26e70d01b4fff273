// Package euler is a Go reproduction of "A Partition-centric Distributed
// Algorithm for Identifying Euler Circuits in Large Graphs" (Jaiswal &
// Simmhan, IPDPS Workshops 2019).
//
// The package is a facade over the internal implementation:
//
//   - FindCircuit runs the paper's three-phase partition-centric algorithm
//     over a goroutine-based BSP engine (one worker per partition) and
//     returns the Euler circuit plus the full instrumentation report used
//     by the paper's figures.
//   - FindCircuitSeq is the sequential Hierholzer baseline.
//   - Verify checks any claimed circuit independently.
//   - NewEulerianRMAT / NewTorus / NewRingOfCliques build Eulerian inputs;
//     Partition* assign them to parts.
//
// See README.md for the system inventory and the serving layer;
// cmd/eulerbench regenerates the paper's tables and figures.
package euler

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bsp"
	"repro/internal/euler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/postman"
	"repro/internal/seq"
	"repro/internal/verify"
)

// Graph is an immutable undirected multigraph; build one with NewBuilder
// or the generators below.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int64, edgeHint int) *Builder { return graph.NewBuilder(n, edgeHint) }

// Step is one oriented edge traversal of an Euler circuit.
type Step = graph.Step

// Mode selects the remote-edge strategy of the distributed algorithm.
type Mode = euler.Mode

// Remote-edge strategies: ModeCurrent is the paper's implemented design
// (Sec. 3), ModeDedup adds remote-edge de-duplication, and ModeProposed is
// the full Section 5 proposal (de-duplication plus deferred transfer).
const (
	ModeCurrent  = euler.ModeCurrent
	ModeDedup    = euler.ModeDedup
	ModeProposed = euler.ModeProposed
)

// Report is the per-run instrumentation record (timings, memory state,
// BSP metrics) backing the paper's figures.
type Report = euler.RunReport

// Assignment maps vertices to partitions.
type Assignment = partition.Assignment

// Options configures FindCircuit: the options write straight into the
// solve pipeline's spec.
type Options struct {
	spec euler.SolveSpec
}

// Option mutates Options.
type Option func(*Options)

// WithPartitions sets the partition count (default 4, or 1 for tiny
// graphs); vertices are assigned with the LDG streaming partitioner unless
// WithAssignment overrides it.
func WithPartitions(k int32) Option { return func(o *Options) { o.spec.Parts = k } }

// WithMode selects the remote-edge strategy (default ModeCurrent).
func WithMode(m Mode) Option { return func(o *Options) { o.spec.Mode = m } }

// WithSeed seeds the partitioner (default 1).
func WithSeed(s int64) Option { return func(o *Options) { o.spec.Seed = s } }

// WithAssignment supplies an explicit partition assignment, bypassing the
// built-in partitioner.
func WithAssignment(a Assignment) Option { return func(o *Options) { o.spec.Assign = &a } }

// WithCostModel installs a platform cost model so the report's modeled
// times include network/scheduler overhead.  Passing all zeros models a
// zero-overhead platform; WithCommodityCluster picks the calibration used
// by the experiment harness.
func WithCostModel(bytesPerSec float64, latency, task, barrier time.Duration) Option {
	return func(o *Options) {
		o.spec.Cost = bsp.CostModel{
			BytesPerSecond:    bytesPerSec,
			LatencyPerMessage: latency,
			TaskOverhead:      task,
			BarrierOverhead:   barrier,
		}
	}
}

// WithCommodityCluster models the paper's 8-VM Azure testbed (1 Gbps
// shuffle bandwidth, 100 ms task scheduling, 250 ms barriers).
func WithCommodityCluster() Option {
	return func(o *Options) { o.spec.Cost = bsp.CommodityCluster() }
}

// WithValidation enables per-level invariant checking during the run.
func WithValidation() Option { return func(o *Options) { o.spec.Validate = true } }

// Circuit is the result of FindCircuit.
type Circuit struct {
	// Steps traverse every edge exactly once, forming a closed walk.
	Steps []Step
	// Report holds the run instrumentation (levels, memory, BSP metrics).
	Report *Report
}

// FindCircuit computes an Euler circuit of g with the partition-centric
// distributed algorithm.  The graph must be Eulerian (all degrees even)
// and its edges connected; Verify-able failures return errors rather than
// bad circuits.
func FindCircuit(g *Graph, opts ...Option) (*Circuit, error) {
	var c Circuit
	report, err := FindCircuitStream(g, func(s Step) error {
		c.Steps = append(c.Steps, s)
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	c.Report = report
	return &c, nil
}

// FindCircuitStream is FindCircuit with streaming emission: emit receives
// each step in circuit order, so the circuit never needs to fit in the
// caller's memory.
func FindCircuitStream(g *Graph, emit func(Step) error, opts ...Option) (*Report, error) {
	spec, err := resolveOptions(g, opts)
	if err != nil {
		return nil, err
	}
	report, _, err := solve(g, spec, emit)
	return report, err
}

// FindCircuitStreamRetain is FindCircuitStream plus delta retention: the
// second return value is an opaque replay record (the pristine plan and
// every partition's Phase 1 outcome) that a later FindCircuitStreamDelta
// call can reuse when solving a slightly different graph.
func FindCircuitStreamRetain(g *Graph, emit func(Step) error, opts ...Option) (*Report, []byte, error) {
	spec, err := resolveOptions(g, opts)
	if err != nil {
		return nil, nil, err
	}
	spec.Retain = true
	return solve(g, spec, emit)
}

// FindCircuitStreamDelta solves g — typically a small edit of a previously
// solved graph — reusing the retained record of the earlier solve:
// partitions whose inputs are byte-identical to the base run are replayed
// instead of re-toured (Report.ReusedParts counts them), and the emitted
// circuit is byte-identical to a from-scratch FindCircuitStream of g.  The
// caller must pass the same partitioning options as the base run; retained
// must come from FindCircuitStreamRetain or an earlier
// FindCircuitStreamDelta (the second return value, for chaining).
// Structural drift between the runs degrades to a full recompute, never to
// a wrong circuit.
func FindCircuitStreamDelta(g *Graph, emit func(Step) error, retained []byte, opts ...Option) (*Report, []byte, error) {
	base, err := euler.DecodeRunRecord(retained)
	if err != nil {
		return nil, nil, fmt.Errorf("euler: decoding retained record: %w", err)
	}
	spec, err := resolveOptions(g, opts)
	if err != nil {
		return nil, nil, err
	}
	spec.Retain, spec.Replay = true, base
	return solve(g, spec, emit)
}

// resolveOptions applies opts over the defaults into the pipeline's spec.
// Unlike a job spec's unset zero, an explicit WithPartitions(0) is invalid;
// the default policy itself lives in euler.Solve.
func resolveOptions(g GraphSource, opts []Option) (euler.SolveSpec, error) {
	o := Options{spec: euler.SolveSpec{Parts: euler.DefaultParts}}
	for _, opt := range opts {
		opt(&o)
	}
	var err error
	o.spec.Parts, err = euler.ClampParts(o.spec.Parts, g.NumVertices())
	return o.spec, err
}

// solve runs the one pipeline, euler.Solve, and encodes the replay record
// a retaining spec produced.
func solve(g GraphSource, spec euler.SolveSpec, emit func(Step) error) (*Report, []byte, error) {
	report, record, err := euler.Solve(context.TODO(), g, spec, emit)
	if err != nil {
		return nil, nil, err
	}
	var retained []byte
	if record != nil {
		retained = euler.EncodeRunRecord(record)
	}
	return report, retained, nil
}

// GraphSource is the read seam an out-of-core graph implements: vertex and
// edge counts, a degree oracle, adjacency, and a streaming edge scan.  The
// in-memory Graph satisfies it, as does a paged disk-backed CSR (see
// internal/oocgraph and the eulerd out-of-core mode).
type GraphSource = graph.Source

// FindCircuitStreamSource is FindCircuitStream over a GraphSource.  A
// source that is not a resident *Graph (a paged disk CSR from
// internal/oocgraph) solves semi-externally: path bodies and leaf
// partition states spill under spillDir (created if missing; "" = a fresh
// OS temp directory removed when the call returns), leaf states load
// lazily one superstep at a time, and BSP workers run sequentially so only
// one partition's state is resident at once.  A resident *Graph keeps its
// bodies in memory and ignores spillDir.  Either way the emitted circuit
// is byte-identical to FindCircuitStream over the equivalent in-memory
// graph.  Record/Replay (delta retention) are not supported on this path.
func FindCircuitStreamSource(g GraphSource, spillDir string, emit func(Step) error, opts ...Option) (*Report, error) {
	spec, err := resolveOptions(g, opts)
	if err != nil {
		return nil, err
	}
	spec.SpillDir = spillDir
	report, _, err := solve(g, spec, emit)
	return report, err
}

// FindCircuitSeq computes an Euler circuit with the sequential Hierholzer
// baseline (O(|V|+|E|)), starting at the given vertex.
func FindCircuitSeq(g *Graph, start int64) ([]Step, error) {
	return seq.Hierholzer(g, start)
}

// Verify checks that steps form an Euler circuit of g: every edge exactly
// once, consecutive steps share endpoints, and the walk is closed.
func Verify(g *Graph, steps []Step) error { return verify.Circuit(g, steps) }

// CheckInput verifies the algorithm's preconditions on g: even degrees
// everywhere and one connected component of edges.  It reads only the
// degree oracle and one streaming edge pass, so a larger-than-memory
// GraphSource is checked without materialising adjacency.
func CheckInput(g GraphSource) error { return verify.EulerianInput(g) }

// NewEulerianRMAT generates a connected Eulerian power-law graph the way
// the paper builds its inputs (Sec. 4.2): RMAT with Graph500 parameters at
// the given vertex count and average degree, largest component, then
// degree-preserving Eulerisation.  The returned percentage is the extra
// edges the Eulerizer added (the paper reports ≈5%).
func NewEulerianRMAT(vertices int64, avgDegree int, seed int64) (*Graph, float64) {
	g, st := gen.EulerianRMAT(gen.RMATParams{
		Vertices: vertices, AvgDegree: avgDegree,
		A: 0.57, B: 0.19, C: 0.19, Seed: seed,
	})
	return g, st.ExtraPercent
}

// NewTorus returns the w×h toroidal grid, a 4-regular connected Eulerian
// graph.
func NewTorus(w, h int64) *Graph { return gen.Torus(w, h) }

// NewRingOfCliques returns k odd cliques K_c chained in a ring through
// shared vertices: connected, Eulerian, and nearly partition-local.
func NewRingOfCliques(k, c int64) *Graph { return gen.RingOfCliques(k, c) }

// NewRandomEulerian returns a random connected Eulerian multigraph built
// from closed walks; useful for fuzzing downstream code.
func NewRandomEulerian(n int64, extraWalks int, walkLen int64, rng *rand.Rand) *Graph {
	return gen.RandomEulerian(n, extraWalks, walkLen, rng)
}

// PartitionLDG assigns vertices with the Linear Deterministic Greedy
// streaming partitioner over a BFS order (the repo's stand-in for ParHIP).
func PartitionLDG(g *Graph, k int32, seed int64) Assignment { return partition.LDG(g, k, seed) }

// PartitionHash assigns vertices by hashing their IDs (quality floor).
func PartitionHash(g *Graph, k int32) Assignment { return partition.Hash(g, k) }

// FindEulerPath computes an open Euler path of a connected graph with
// exactly two odd-degree vertices (the paper's circuit algorithm closed
// with a virtual edge and rotated; see internal/postman).  The walk starts
// at one odd vertex, ends at the other, and covers every edge once.
func FindEulerPath(g *Graph, opts ...Option) ([]Step, error) {
	spec, err := resolveOptions(g, opts)
	if err != nil {
		return nil, err
	}
	return postman.EulerPath(g, solver(spec))
}

// CoveringTour solves the undirected route-inspection (Chinese postman)
// problem on a connected graph of any degree parity, the generalisation the
// paper's conclusion names as future work: odd vertices are paired along
// short paths whose edges may be revisited, and the result is a closed tour
// covering every edge at least once.  Tour.Revisits counts the deadheading
// traversals.
func CoveringTour(g *Graph, opts ...Option) (*postman.Tour, error) {
	spec, err := resolveOptions(g, opts)
	if err != nil {
		return nil, err
	}
	return postman.CoveringTour(g, solver(spec))
}

// solver is postman's circuit runner: solve under the whole resolved spec.
func solver(spec euler.SolveSpec) func(*Graph, func(Step) error) error {
	return func(g *Graph, emit func(Step) error) error {
		_, _, err := solve(g, spec, emit)
		return err
	}
}

// VerifyTour checks a covering tour produced by CoveringTour.
func VerifyTour(g *Graph, t *postman.Tour) error { return postman.VerifyTour(g, t) }

// PartitionRefine improves an assignment with greedy local moves (the
// stand-in for ParHIP's refinement phase) and returns the refined
// assignment with the cut improvement in undirected edges.
func PartitionRefine(g *Graph, a Assignment) (Assignment, int64) {
	return partition.Refine(g, a, partition.RefineOptions{})
}
