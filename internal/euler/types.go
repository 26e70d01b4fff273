// Package euler implements the paper's partition-centric distributed
// algorithm for identifying Euler circuits (Jaiswal & Simmhan, IPDPS
// Workshops 2019).
//
// The algorithm runs in three phases over a partitioned Eulerian graph:
//
//   - Phase 1 finds edge-disjoint maximal local paths between odd-degree
//     boundary vertices (OB), then maximal local cycles from even-degree
//     boundary vertices (EB) and internal vertices, concurrently in every
//     partition.  Each path is replaced by a single coarse "OB-pair" edge
//     and its body is spilled to disk, shrinking the in-memory state.
//   - Phase 2 merges partition pairs level by level along a merge tree
//     built by greedy maximum-weight matching over the partition
//     meta-graph; remote edges between a merged pair become local edges and
//     Phase 1 re-runs on the merged partition.
//   - Phase 3 unrolls the root cycle through the spilled bodies and the
//     anchored-cycle registry into the final Euler circuit.
//
// The package also implements the paper's Section 5 memory heuristics
// (remote-edge de-duplication and deferred remote-edge transfer) as
// selectable execution modes, with the Long-count memory accounting used by
// Fig. 8 and Fig. 9.
package euler

import (
	"fmt"

	"repro/internal/graph"
)

// PathID identifies a path or cycle found by Phase 1.  IDs are allocated
// deterministically as level<<40 | partition<<28 | (sequence+1), so runs
// are reproducible regardless of goroutine scheduling.  Zero is reserved as
// the "no path" sentinel.
type PathID = int64

// MakePathID composes a deterministic PathID; seq counts from 0 within one
// Phase 1 execution.
func MakePathID(level, part int, seq int64) PathID {
	return int64(level)<<40 | int64(part)<<28 | (seq + 1)
}

// pathPart returns the part field of a PathID.
func pathPart(id PathID) int {
	return int(id >> 28 & (1<<12 - 1))
}

// ItemKind distinguishes the two element types of a path/cycle body.
type ItemKind uint8

const (
	// ItemEdge is an original graph edge.
	ItemEdge ItemKind = iota
	// ItemPath is a reference to a lower-level path (an OB-pair edge that
	// was traversed as a single coarse edge).
	ItemPath
)

// Item is one oriented element of a path or cycle body: traversal runs
// From → To.  For ItemEdge, Ref is the graph.EdgeID; for ItemPath it is the
// referenced PathID, whose own body runs Src→Dst and is unrolled reversed
// when From equals its Dst.
type Item struct {
	Kind     ItemKind
	Ref      int64
	From, To graph.VertexID
}

// PathType classifies pathMap entries, mirroring the paper's OB path / EB
// cycle / internal-vertex cycle taxonomy.
type PathType uint8

const (
	// OBPath is a maximal local path between two odd-degree boundary
	// vertices; it becomes a coarse OB-pair edge at the next level.
	OBPath PathType = iota
	// EBCycle is a maximal local cycle anchored at an even-degree boundary
	// vertex.
	EBCycle
	// IVCycle is a maximal local cycle anchored at an internal (or
	// previously visited) vertex; the paper merges these into a host entry
	// at a pivot vertex, which we realise by anchoring them at that pivot
	// and splicing during Phase 3 (see Registry.Unroll).
	IVCycle
)

func (t PathType) String() string {
	switch t {
	case OBPath:
		return "OBPath"
	case EBCycle:
		return "EBCycle"
	case IVCycle:
		return "IVCycle"
	}
	return fmt.Sprintf("PathType(%d)", uint8(t))
}

// PathRec is the in-memory pathMap metadata for one path or cycle; the
// Registry keeps or spills its body.  For cycles Src == Dst (the anchor).
type PathRec struct {
	ID       PathID
	Type     PathType
	Src, Dst graph.VertexID
	Level    int   // merge-tree level at which it was found
	Part     int   // partition (parent leaf ID) that found it
	Items    int64 // body length, for accounting
}

// CoarseEdge is a local edge of a (possibly merged) partition's coarse
// multigraph: either an original graph edge (Kind==ItemEdge, Ref==EdgeID)
// or an OB-pair edge standing for a lower-level path (Kind==ItemPath,
// Ref==PathID).
type CoarseEdge struct {
	U, V graph.VertexID
	Kind ItemKind
	Ref  int64
}

// RemoteEdge is a stored copy of a cut edge: Local is the endpoint inside
// the owning partition, Remote the endpoint elsewhere.  ConvertLevel is the
// merge-tree level at which the two sides' partition groups merge and the
// edge becomes local.
type RemoteEdge struct {
	Local, Remote graph.VertexID
	Edge          graph.EdgeID
	ConvertLevel  int32
}

// Stub records remote-degree owed to a vertex by edges this partition does
// not store (the de-duplicated copy lives in the other partition, or the
// edge is parked on a leaf host under the deferred-transfer heuristic).
// Stubs keep boundary/parity classification correct in the Section 5 modes
// at 3 Longs per (vertex, level) group instead of 2 Longs per edge.
type Stub struct {
	Vertex       graph.VertexID
	ConvertLevel int32
	Count        int64
}

// Mode selects the remote-edge management strategy.
type Mode uint8

const (
	// ModeCurrent is the paper's implemented design: every cut edge is
	// stored by both partitions and full state transfers at each merge.
	ModeCurrent Mode = iota
	// ModeDedup adds Section 5's "avoid remote edge duplication": only the
	// lighter partition of a future-merge pair stores the edge; the other
	// side holds a Stub.
	ModeDedup
	// ModeProposed is Section 5 in full: de-duplication plus deferred
	// transfer, where remote edges converting at level l stay parked on
	// their leaf host machine until superstep l.
	ModeProposed
)

func (m Mode) String() string {
	switch m {
	case ModeCurrent:
		return "current"
	case ModeDedup:
		return "dedup"
	case ModeProposed:
		return "proposed"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode is String's inverse over the wire names; "" means ModeCurrent.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "current":
		return ModeCurrent, nil
	case "dedup":
		return ModeDedup, nil
	case "proposed":
		return ModeProposed, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want current, dedup, or proposed)", s)
}

// PartState is the in-memory state of one (possibly merged) partition
// between levels: the coarse local multigraph plus its stored remote edges
// and stubs.  Vertex sets are implicit in the edges.
//
// A level-0 leaf built over a resident graph for an in-process run may
// hold its local edges in place instead (onGraph): Local is then empty,
// and the tour that consumes the leaf fills Local with its OB pairs.
type PartState struct {
	// Parent is the leaf partition ID that names this (merged) partition.
	Parent int
	// Leaves are the leaf partitions merged into this state, sorted.
	Leaves []int
	// Local is the coarse local multigraph: OB-pair edges from prior
	// Phase 1 runs plus remote edges converted by merges.
	Local []CoarseEdge
	// Remote holds this partition's stored remote-edge copies as an
	// ordered list of runs: the logical list is the runs concatenated.  A
	// leaf state has one run (none when it stores no remote edge); a merge
	// appends the child's runs to the parent's, so carried edges move from
	// state to state and are never copied.  A run may be empty.
	Remote [][]RemoteEdge
	// Stubs holds remote-degree owed by unstored edges (Section 5 modes).
	Stubs []Stub

	// onGraph, when set, stands for Local: the state's local edges are
	// the resident graph's edges with both endpoints in the leaf's part.
	onGraph *graphLeaf
}

// localLen returns the number of coarse local edges.
func (s *PartState) localLen() int64 {
	if s.onGraph != nil {
		return s.onGraph.locals
	}
	return int64(len(s.Local))
}

// RemoteDegree returns the per-vertex remote degree implied by stored
// remote edges plus stubs.
func (s *PartState) RemoteDegree() map[graph.VertexID]int64 {
	deg := make(map[graph.VertexID]int64)
	for _, run := range s.Remote {
		for _, r := range run {
			deg[r.Local]++
		}
	}
	for _, st := range s.Stubs {
		deg[st.Vertex] += st.Count
	}
	return deg
}

// LocalDegree returns the per-vertex coarse local degree.
func (s *PartState) LocalDegree() map[graph.VertexID]int64 {
	deg := make(map[graph.VertexID]int64)
	if l := s.onGraph; l != nil {
		for _, v := range l.verts {
			for _, h := range l.g.Adj(v) {
				if l.of[h.To] == l.part {
					deg[v]++
				}
			}
		}
	}
	for _, e := range s.Local {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

// Longs returns the number of 8-byte Long values this state occupies under
// the paper's platform-independent memory metric (Sec. 4.3): 2 per vertex
// (ID and classification flags), 3 per coarse local edge (endpoints and
// body reference), 2 per stored remote-edge copy (endpoints), 3 per stub
// group.
//
// It builds a vertex set per call and is the reference implementation for
// tests and reports; the run itself counts with longsWith from the vertex
// count Phase 1 already has.
func (s *PartState) Longs() int64 {
	verts := make(map[graph.VertexID]struct{})
	for v := range s.LocalDegree() {
		verts[v] = struct{}{}
	}
	for _, run := range s.Remote {
		for _, r := range run {
			verts[r.Local] = struct{}{}
		}
	}
	for _, st := range s.Stubs {
		verts[st.Vertex] = struct{}{}
	}
	return s.longsWith(int64(len(verts)))
}

// longsWith is Longs for a caller that already knows the state's distinct
// vertex count.
func (s *PartState) longsWith(verts int64) int64 {
	return 2*verts + 3*s.localLen() +
		2*int64(s.remoteLen()) + 3*int64(len(s.Stubs))
}

// remoteLen returns the number of stored remote-edge copies in all runs.
func (s *PartState) remoteLen() int {
	n := 0
	for _, run := range s.Remote {
		n += len(run)
	}
	return n
}

// oneRun makes a freshly built remote list a state's only run.
func oneRun(edges []RemoteEdge) [][]RemoteEdge {
	if len(edges) == 0 {
		return nil
	}
	return [][]RemoteEdge{edges}
}

// CheckParity verifies the Eulerian partition invariant δL(v)+δR(v) ≡ 0
// (mod 2) for every vertex of the state (Sec. 3.1).  It returns the first
// violation found.
func (s *PartState) CheckParity() error {
	local := s.LocalDegree()
	remote := s.RemoteDegree()
	verts := make(map[graph.VertexID]struct{}, len(local)+len(remote))
	for v := range local {
		verts[v] = struct{}{}
	}
	for v := range remote {
		verts[v] = struct{}{}
	}
	for v := range verts {
		if (local[v]+remote[v])%2 != 0 {
			return fmt.Errorf("euler: vertex %d has odd total degree %d local + %d remote",
				v, local[v], remote[v])
		}
	}
	return nil
}
