package euler

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Plan is the static schedule of one distributed run, computed once by the
// coordinator: the merge tree flattened into dense per-level lookup tables,
// plus every leaf partition's initial state and parked remote-edge pools.
// A Plan slice is everything a remote worker needs to host its range of
// the run: such a worker never sees the input graph.
//
// Lo and Hi bound the worker range the per-worker slices cover: leaves[w-Lo]
// and Parked[w-Lo] belong to worker w.  A full plan has Lo == 0,
// Hi == NumWorkers.  A leaf state stays decoded while the plan is only run
// in the process that built it; built from a resident graph it is then
// held in place, borrowing the graph read-only until its tour (see
// graphLeaf).  It is held encoded once it has crossed a process boundary
// (DecodePlanSlice) or has to be shipped or retained (encodeLeaves).  A
// run takes each leaf out of the plan at superstep 0.
type Plan struct {
	NumWorkers  int
	NumVertices int64
	Height      int
	Root        int
	Mode        Mode
	Validate    bool
	Lo, Hi      int

	// ChildTarget[l][w] is the merge parent worker w sends its state to
	// between supersteps l and l+1, or -1 when w is not a merge child.
	ChildTarget [][]int32
	// IsParent[l][w] flags the workers that receive a child state.
	IsParent [][]bool
	// RepAt[l][w] is worker w's group representative at the start of
	// level l (RepAt[Height] is the root for all).
	RepAt [][]int32

	// leaves holds each hosted worker's leaf state; nil when the leaves
	// were spilled to Config.InitStore instead.
	leaves []leafSlot
	// Parked holds each hosted worker's deferred remote-edge pools
	// (ModeProposed), keyed by conversion level.
	Parked []map[int32][]RemoteEdge

	// ParkedLongsAt[l] is the static parked memory series for the Fig. 8
	// report; only the coordinator's full plan carries it.
	ParkedLongsAt []int64
}

// leafSlot holds one worker's leaf state either decoded (state, possibly
// held in place) or as its EncodeState bytes (enc); both are nil once the
// run has taken it.
type leafSlot struct {
	state *PartState
	enc   []byte
}

// encodeLeaves switches every decoded leaf to its encoding, for a plan
// whose leaves are about to be shipped or retained: encoding each leaf
// once lets every slice, the retained plan and the replay diff share the
// bytes, and drops the decoded states the coordinator never runs.
func (p *Plan) encodeLeaves() {
	p.copyInPlaceLeaves()
	for i := range p.leaves {
		if l := &p.leaves[i]; l.state != nil {
			*l = leafSlot{enc: EncodeState(l.state)}
		}
	}
}

// copyInPlaceLeaves gives every leaf held in place its Local copy, in one
// pass over the graph's edges in EdgeID order, which makes it the state
// BuildLeafStates builds: it then encodes to the same bytes.
func (p *Plan) copyInPlaceLeaves() {
	var ip *inPlace
	byPart := make([]*PartState, p.NumWorkers)
	for _, l := range p.leaves {
		if st := l.state; st != nil && st.onGraph != nil {
			ip = st.onGraph.inPlace
			byPart[st.onGraph.part] = st
			st.Local = make([]CoarseEdge, 0, st.onGraph.locals)
			st.onGraph = nil
		}
	}
	if ip == nil {
		return
	}
	for _, e := range ip.g.Edges() {
		if pu := ip.of[e.U]; pu == ip.of[e.V] && byPart[pu] != nil {
			byPart[pu].Local = append(byPart[pu].Local, CoarseEdge{U: e.U, V: e.V, Kind: ItemEdge, Ref: e.ID})
		}
	}
}

// BuildPlan validates the input and computes the run schedule: meta-graph,
// merge tree, leaf states, and the dense per-level lookup tables the BSP
// program reads.  The returned tree is the schedule's source (kept for
// reporting); the plan is self-contained but for leaves held in place.
//
// A resident *graph.Graph's leaves are held in place unless the plan is
// built to be recorded or replayed (cfg.Record, cfg.Replay), whose leaves
// are encoded before they run.
func BuildPlan(g graph.Source, a partition.Assignment, cfg Config) (*Plan, *MergeTree, error) {
	return buildPlan(g, a, cfg, cfg.Record || cfg.Replay != nil)
}

// buildPlan is BuildPlan; encoded says the leaves will be encoded for
// shipment or retention rather than toured by this process, so they are
// built with their Local copies.
func buildPlan(g graph.Source, a partition.Assignment, cfg Config, encoded bool) (*Plan, *MergeTree, error) {
	if err := a.Validate(g); err != nil {
		return nil, nil, err
	}
	if g.NumEdges() == 0 {
		return nil, nil, fmt.Errorf("euler: graph has no edges")
	}
	// One degree scan decides Eulerian-ness and names the evidence; the
	// Source seam keeps it an O(V) pass with no edge materialisation.
	odd, firstOdd := int64(0), graph.VertexID(-1)
	for v := int64(0); v < g.NumVertices(); v++ {
		if g.Degree(v)%2 == 1 {
			if odd == 0 {
				firstOdd = v
			}
			odd++
		}
	}
	if odd > 0 {
		return nil, nil, fmt.Errorf("euler: graph is not Eulerian: %d odd-degree vertices (first: %d)", odd, firstOdd)
	}
	strat := cfg.Strategy
	if strat == nil {
		strat = GreedyMaxWeight
	}

	n := int(a.Parts)
	meta, err := BuildMetaGraph(g, a)
	if err != nil {
		return nil, nil, err
	}
	tree := BuildMergeTree(meta, strat)
	height := tree.Height()

	p := &Plan{
		NumWorkers:  n,
		NumVertices: g.NumVertices(),
		Height:      height,
		Root:        tree.Root(),
		Mode:        cfg.Mode,
		Validate:    cfg.Validate,
		Lo:          0,
		Hi:          n,
	}

	if cfg.InitStore != nil {
		// Out-of-core: leaf states spill to the store one partition at a
		// time; leaves stays nil and workers load lazily.
		parkedPools, err := BuildSpilledLeafStates(g, a, tree, cfg.Mode, cfg.ScratchDir, cfg.InitStore)
		if err != nil {
			return nil, nil, err
		}
		p.Parked = parkedPools
	} else {
		var states []*PartState
		var parkedPools []map[int32][]RemoteEdge
		// An in-place CSR half names its edge by an int32 EdgeID.
		if resident, ok := g.(*graph.Graph); ok && !encoded && g.NumEdges() <= math.MaxInt32 {
			states, parkedPools, err = buildInPlaceLeaves(resident, a, tree, cfg.Mode)
		} else {
			states, parkedPools, err = BuildLeafStates(g, a, tree, cfg.Mode)
		}
		if err != nil {
			return nil, nil, err
		}
		p.Parked = parkedPools
		p.leaves = make([]leafSlot, n)
		for i, s := range states {
			p.leaves[i].state = s
		}
	}

	// Per-level schedule lookups, dense over the worker IDs.
	p.ChildTarget = make([][]int32, height)
	p.IsParent = make([][]bool, height)
	for l := 0; l < height; l++ {
		ct := make([]int32, n)
		for i := range ct {
			ct[i] = -1
		}
		ip := make([]bool, n)
		for _, pr := range tree.Levels[l] {
			ct[pr.Child] = int32(pr.Parent)
			ip[pr.Parent] = true
		}
		p.ChildTarget[l] = ct
		p.IsParent[l] = ip
	}
	p.RepAt = make([][]int32, height+1)
	for l := 0; l <= height; l++ {
		row := make([]int32, n)
		for w := 0; w < n; w++ {
			row[w] = int32(tree.RepAt(l, w))
		}
		p.RepAt[l] = row
	}

	// Static parked-volume series for the Fig. 8 report: parked[l] leaves
	// leaf memory during superstep l.
	p.ParkedLongsAt = make([]int64, height+1)
	for _, pool := range p.Parked {
		for lvl, edges := range pool {
			for s := 0; int32(s) <= lvl && s <= height; s++ {
				p.ParkedLongsAt[s] += 2 * int64(len(edges))
			}
		}
	}
	return p, tree, nil
}

// EncodeSlice serialises the plan restricted to workers [lo, hi) for
// shipment to the node hosting that range.  The schedule tables are global
// (every worker needs the full merge schedule to address its sends); only
// the per-worker state is sliced.  Leaves held in place get their Local
// copies first, so they encode as BuildLeafStates' leaves do.
func (p *Plan) EncodeSlice(lo, hi int) ([]byte, error) {
	if lo < p.Lo || hi > p.Hi || lo >= hi {
		return nil, fmt.Errorf("euler: plan slice [%d, %d) outside held range [%d, %d)", lo, hi, p.Lo, p.Hi)
	}
	if p.leaves == nil {
		return nil, fmt.Errorf("euler: out-of-core plan (spilled leaf states) cannot be sliced for shipment")
	}
	p.copyInPlaceLeaves()
	dst := binary.AppendUvarint([]byte{WireV3}, uint64(p.NumWorkers))
	dst = binary.AppendUvarint(dst, uint64(p.NumVertices))
	dst = binary.AppendUvarint(dst, uint64(p.Height))
	dst = binary.AppendUvarint(dst, uint64(p.Root))
	dst = append(dst, byte(p.Mode))
	var vb byte
	if p.Validate {
		vb = 1
	}
	dst = append(dst, vb)
	dst = binary.AppendUvarint(dst, uint64(lo))
	dst = binary.AppendUvarint(dst, uint64(hi))
	for _, row := range p.ChildTarget {
		for _, v := range row {
			dst = binary.AppendVarint(dst, int64(v))
		}
	}
	for _, row := range p.IsParent {
		for _, v := range row {
			b := byte(0)
			if v {
				b = 1
			}
			dst = append(dst, b)
		}
	}
	for _, row := range p.RepAt {
		for _, v := range row {
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	for w := lo; w < hi; w++ {
		if leaf := p.leaves[w-p.Lo]; leaf.state != nil {
			dst = binary.AppendUvarint(dst, uint64(encodedStateLen(leaf.state)))
			dst = AppendState(dst, leaf.state)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(leaf.enc)))
			dst = append(dst, leaf.enc...)
		}
		pool := p.Parked[w-p.Lo]
		dst = binary.AppendUvarint(dst, uint64(len(pool)))
		for _, lvl := range sortedParkedLevels(pool) {
			dst = binary.AppendVarint(dst, int64(lvl))
			dst = AppendRemoteBatch(dst, pool[lvl])
		}
	}
	return dst, nil
}

// DecodePlanSlice parses a plan slice written by EncodeSlice.
func DecodePlanSlice(buf []byte) (*Plan, error) {
	d := &decoder{buf: buf}
	if err := d.marker("plan slice"); err != nil {
		return nil, err
	}
	p := &Plan{}
	u := func() (int, error) {
		v, err := d.uvarint()
		return int(v), err
	}
	var err error
	if p.NumWorkers, err = u(); err != nil {
		return nil, err
	}
	nv, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	p.NumVertices = int64(nv)
	if p.Height, err = u(); err != nil {
		return nil, err
	}
	if p.Root, err = u(); err != nil {
		return nil, err
	}
	if d.off+2 > len(d.buf) {
		return nil, fmt.Errorf("euler: truncated plan header")
	}
	p.Mode = Mode(d.buf[d.off])
	p.Validate = d.buf[d.off+1] != 0
	d.off += 2
	if p.Lo, err = u(); err != nil {
		return nil, err
	}
	if p.Hi, err = u(); err != nil {
		return nil, err
	}
	if p.NumWorkers < 1 || p.Lo < 0 || p.Hi > p.NumWorkers || p.Lo >= p.Hi {
		return nil, fmt.Errorf("euler: plan slice range [%d, %d) invalid for %d workers", p.Lo, p.Hi, p.NumWorkers)
	}
	// The schedule tables cost at least one byte per worker per level
	// (RepAt always has Height+1 rows), so both dimensions are bounded by
	// the remaining payload — check before allocating from them.
	remaining := len(d.buf) - d.off
	if p.NumWorkers > remaining || p.Height > remaining {
		return nil, fmt.Errorf("euler: plan tables (%d workers × height %d) exceed payload size %d", p.NumWorkers, p.Height, remaining)
	}
	n := p.NumWorkers
	p.ChildTarget = make([][]int32, p.Height)
	for l := range p.ChildTarget {
		row := make([]int32, n)
		for w := range row {
			v, err := d.varint()
			if err != nil {
				return nil, err
			}
			row[w] = int32(v)
		}
		p.ChildTarget[l] = row
	}
	p.IsParent = make([][]bool, p.Height)
	for l := range p.IsParent {
		if d.off+n > len(d.buf) {
			return nil, fmt.Errorf("euler: truncated isParent table")
		}
		row := make([]bool, n)
		for w := range row {
			row[w] = d.buf[d.off+w] != 0
		}
		d.off += n
		p.IsParent[l] = row
	}
	p.RepAt = make([][]int32, p.Height+1)
	for l := range p.RepAt {
		row := make([]int32, n)
		for w := range row {
			v, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			row[w] = int32(v)
		}
		p.RepAt[l] = row
	}
	local := p.Hi - p.Lo
	p.leaves = make([]leafSlot, local)
	p.Parked = make([]map[int32][]RemoteEdge, local)
	for i := 0; i < local; i++ {
		ln, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(d.buf)-d.off) < ln {
			return nil, fmt.Errorf("euler: truncated leaf state %d", i)
		}
		p.leaves[i].enc = d.buf[d.off : d.off+int(ln)]
		d.off += int(ln)
		groups, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		pool := make(map[int32][]RemoteEdge, groups)
		for j := uint64(0); j < groups; j++ {
			lvl, err := d.varint()
			if err != nil {
				return nil, err
			}
			batch, n2, err := decodeRemoteBatchAt(d.buf, d.off)
			if err != nil {
				return nil, err
			}
			d.off = n2
			pool[int32(lvl)] = batch
		}
		p.Parked[i] = pool
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return p, nil
}

func sortedParkedLevels(pool map[int32][]RemoteEdge) []int32 {
	levels := make([]int32, 0, len(pool))
	for l := range pool {
		levels = append(levels, l)
	}
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	return levels
}
