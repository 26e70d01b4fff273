package euler

// Delta recompute support.  A full run can retain a RunRecord: the pristine
// plan plus, for every merge-tree node that ran Phase 1, the node's encoded
// post-tour state, path metadata, and spilled bodies.  A later run over a
// slightly different graph builds its plan from scratch, diffs the new
// plan's leaf inputs against the retained one, and replays the recorded
// Phase 1 results for every node whose entire leaf group is byte-identical
// — only dirty nodes re-tour.  Because Phase 1 is a deterministic function
// of a node's inputs, and a clean node's visited-vertex queries can only
// observe marks produced inside its own (clean) subtree, the replayed run
// emits a circuit byte-identical to a from-scratch solve of the new graph.
// Any structural drift (partition assignment, merge-tree shape, mode)
// degrades gracefully to a full recompute, never to a wrong answer.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
)

// NodeRecord is the replay material of one computing merge-tree node:
// worker W at superstep S.
type NodeRecord struct {
	W, S int
	// State is the node's encoded PartState after Phase 1 replaced its
	// Local set with the coarse OB pairs — exactly what the node would
	// carry (or send to its merge parent) next.
	State []byte
	// Recs, Seeds, and Visited mirror the node's Phase1Result fields the
	// registry absorbed (copied out of scratch memory at record time).
	Recs    []PathRec
	Seeds   []PathID
	Visited []graph.VertexID
}

// RunRecord is the full replay material of one run.
type RunRecord struct {
	// PlanBytes is the pristine full-plan encoding (EncodeSlice over all
	// workers, captured before the engine consumed the parked pools).
	PlanBytes []byte
	// Nodes covers every node that ran Phase 1, ordered by (S, W).
	Nodes []NodeRecord
	// Bodies maps every recorded path to its encoded body bytes.
	Bodies map[PathID][]byte
}

// nodeKey addresses one computing node.
type nodeKey struct{ w, s int }

// runRecorder collects NodeRecords from concurrently computing workers.
type runRecorder struct {
	mu    sync.Mutex
	nodes []NodeRecord
}

// record snapshots one node's Phase 1 outcome.  res aliases the worker's
// scratch memory, so everything kept is copied here, and state is encoded
// immediately (its Local slice aliases the same scratch).
func (r *runRecorder) record(w, s int, res *Phase1Result, state *PartState) {
	nr := NodeRecord{
		W:       w,
		S:       s,
		State:   EncodeState(state),
		Recs:    append([]PathRec(nil), res.Recs...),
		Seeds:   append([]PathID(nil), res.Seeds...),
		Visited: append([]graph.VertexID(nil), res.Visited...),
	}
	r.mu.Lock()
	r.nodes = append(r.nodes, nr)
	r.mu.Unlock()
}

// sorted returns the records in deterministic (S, W) order.
func (r *runRecorder) sorted() []NodeRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.nodes, func(i, j int) bool {
		if r.nodes[i].S != r.nodes[j].S {
			return r.nodes[i].S < r.nodes[j].S
		}
		return r.nodes[i].W < r.nodes[j].W
	})
	return r.nodes
}

// collectBodies reads every recorded path's body back from the sealed
// registry, whose Seal has already rejected a repeated path ID, and
// encodes the typed ones: the record keeps bodies as bytes.
func collectBodies(reg *Registry, nodes []NodeRecord) (map[PathID][]byte, error) {
	bodies := make(map[PathID][]byte)
	var buf []byte
	for i := range nodes {
		for _, rec := range nodes[i].Recs {
			if k, ok := reg.rank(rec.ID); ok && reg.typed != nil && reg.typed[k] != nil {
				buf = appendBody(buf[:0], reg.recs[k].Src, reg.typed[k])
				bodies[rec.ID] = append([]byte(nil), buf...)
				continue
			}
			body, err := reg.body(rec.ID)
			if err != nil {
				return nil, fmt.Errorf("euler: retaining body %d: %w", rec.ID, err)
			}
			bodies[rec.ID] = body
		}
	}
	return bodies, nil
}

// buildReplaySet diffs the fresh plan, its leaves encoded, against a
// retained run and returns the records of every node that can be replayed
// verbatim.  A nil or empty map means full recompute (structural drift or
// all-dirty); the result is always safe — replay is only offered for nodes
// whose complete leaf-group input is byte-identical to the retained run.
func buildReplaySet(plan *Plan, base *RunRecord) map[nodeKey]*NodeRecord {
	basePlan, err := DecodePlanSlice(base.PlanBytes)
	if err != nil {
		return nil
	}
	// A retained plan must be a whole plan: a slice lacks the leaves the
	// diff compares, which is drift like any other.
	if basePlan.Lo != 0 || basePlan.Hi != basePlan.NumWorkers || !plansCongruent(plan, basePlan) {
		return nil
	}
	n := plan.NumWorkers
	leafDirty := make([]bool, n)
	for w := 0; w < n; w++ {
		if !bytes.Equal(plan.leaves[w].enc, basePlan.leaves[w].enc) ||
			!poolsEqual(plan.Parked[w], basePlan.Parked[w]) {
			leafDirty[w] = true
		}
	}
	byNode := make(map[nodeKey]*NodeRecord, len(base.Nodes))
	for i := range base.Nodes {
		rec := &base.Nodes[i]
		byNode[nodeKey{rec.W, rec.S}] = rec
	}
	// A node at superstep s holds the merged state of every leaf whose
	// representative at level s is that node's worker; it is clean exactly
	// when all of them are.
	replay := make(map[nodeKey]*NodeRecord)
	for s := 0; s <= plan.Height; s++ {
		groupDirty := make([]bool, n)
		for l := 0; l < n; l++ {
			if leafDirty[l] {
				groupDirty[plan.RepAt[s][l]] = true
			}
		}
		for w := 0; w < n; w++ {
			computing := s == 0 || plan.IsParent[s-1][w]
			if !computing || groupDirty[w] {
				continue
			}
			rec, ok := byNode[nodeKey{w, s}]
			if !ok {
				// The retained run is missing a node the congruent plan
				// says computed — treat it as dirty rather than guess.
				continue
			}
			replay[nodeKey{w, s}] = rec
		}
	}
	return replay
}

// plansCongruent reports whether two plans share the exact merge schedule,
// so per-node replay material lines up node for node.
func plansCongruent(a, b *Plan) bool {
	if a.NumWorkers != b.NumWorkers || a.Height != b.Height ||
		a.Root != b.Root || a.Mode != b.Mode {
		return false
	}
	for l := range a.ChildTarget {
		for w, v := range a.ChildTarget[l] {
			if b.ChildTarget[l][w] != v {
				return false
			}
		}
	}
	for l := range a.IsParent {
		for w, v := range a.IsParent[l] {
			if b.IsParent[l][w] != v {
				return false
			}
		}
	}
	for l := range a.RepAt {
		for w, v := range a.RepAt[l] {
			if b.RepAt[l][w] != v {
				return false
			}
		}
	}
	return true
}

// poolsEqual compares two parked remote-edge pools structurally.
func poolsEqual(a, b map[int32][]RemoteEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for lvl, ea := range a {
		eb, ok := b[lvl]
		if !ok || len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i] != eb[i] {
				return false
			}
		}
	}
	return true
}

// restoreBodies re-inserts the retained bodies of every replayed node into
// the run's registry, so Phase 3 unrolls them exactly as a from-scratch
// run would.  Dirty nodes write their own fresh bodies under disjoint IDs.
func restoreBodies(reg *Registry, replay map[nodeKey]*NodeRecord, bodies map[PathID][]byte) error {
	for _, rec := range replay {
		for _, pr := range rec.Recs {
			body, ok := bodies[pr.ID]
			if !ok {
				return fmt.Errorf("euler: retained run is missing body %d", pr.ID)
			}
			if err := reg.putBody(pr.ID, body); err != nil {
				return fmt.Errorf("euler: restoring body %d: %w", pr.ID, err)
			}
		}
	}
	return nil
}

// EncodeRunRecord serialises a RunRecord with the wire v3 conventions, for
// retention in the scheduler's delta store.
func EncodeRunRecord(r *RunRecord) []byte {
	dst := binary.AppendUvarint([]byte{WireV3}, uint64(len(r.PlanBytes)))
	dst = append(dst, r.PlanBytes...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Nodes)))
	for i := range r.Nodes {
		nr := &r.Nodes[i]
		dst = binary.AppendUvarint(dst, uint64(nr.W))
		dst = binary.AppendUvarint(dst, uint64(nr.S))
		dst = binary.AppendUvarint(dst, uint64(len(nr.State)))
		dst = append(dst, nr.State...)
		dst = binary.AppendUvarint(dst, uint64(len(nr.Recs)))
		for _, rec := range nr.Recs {
			dst = binary.AppendUvarint(dst, uint64(rec.ID))
			dst = append(dst, byte(rec.Type))
			dst = binary.AppendUvarint(dst, uint64(rec.Src))
			dst = binary.AppendUvarint(dst, uint64(rec.Dst))
			dst = binary.AppendUvarint(dst, uint64(rec.Level))
			dst = binary.AppendUvarint(dst, uint64(rec.Part))
			dst = binary.AppendUvarint(dst, uint64(rec.Items))
		}
		dst = binary.AppendUvarint(dst, uint64(len(nr.Seeds)))
		for _, id := range nr.Seeds {
			dst = binary.AppendUvarint(dst, uint64(id))
		}
		dst = binary.AppendUvarint(dst, uint64(len(nr.Visited)))
		prev := int64(0)
		for _, v := range nr.Visited {
			dst = binary.AppendVarint(dst, int64(v)-prev)
			prev = int64(v)
		}
	}
	ids := make([]PathID, 0, len(r.Bodies))
	for id := range r.Bodies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		body := r.Bodies[id]
		dst = binary.AppendUvarint(dst, uint64(id))
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	return dst
}

// DecodeRunRecord parses an EncodeRunRecord payload.  Decoded slices alias
// buf; callers must not mutate it afterwards.
func DecodeRunRecord(buf []byte) (*RunRecord, error) {
	d := &decoder{buf: buf}
	if err := d.marker("run record"); err != nil {
		return nil, err
	}
	r := &RunRecord{}
	take := func(what string) ([]byte, error) {
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(d.buf)-d.off) < n {
			return nil, fmt.Errorf("euler: truncated %s", what)
		}
		b := d.buf[d.off : d.off+int(n)]
		d.off += int(n)
		return b, nil
	}
	var err error
	if r.PlanBytes, err = take("retained plan"); err != nil {
		return nil, err
	}
	nodes, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nodes > uint64(len(d.buf)) {
		return nil, fmt.Errorf("euler: run record claims %d nodes in %d bytes", nodes, len(d.buf))
	}
	r.Nodes = make([]NodeRecord, nodes)
	for i := range r.Nodes {
		nr := &r.Nodes[i]
		w, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		s, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		nr.W, nr.S = int(w), int(s)
		if nr.State, err = take("node state"); err != nil {
			return nil, err
		}
		nrecs, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nrecs > uint64(len(d.buf)) {
			return nil, fmt.Errorf("euler: node record claims %d paths in %d bytes", nrecs, len(d.buf))
		}
		nr.Recs = make([]PathRec, nrecs)
		for j := range nr.Recs {
			rec := &nr.Recs[j]
			id, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			rec.ID = PathID(id)
			t, err := d.byteVal()
			if err != nil {
				return nil, err
			}
			rec.Type = PathType(t)
			src, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			dst, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			rec.Src, rec.Dst = graph.VertexID(src), graph.VertexID(dst)
			lvl, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			part, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			items, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			rec.Level, rec.Part, rec.Items = int(lvl), int(part), int64(items)
		}
		nseeds, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nseeds > uint64(len(d.buf)) {
			return nil, fmt.Errorf("euler: node record claims %d seeds in %d bytes", nseeds, len(d.buf))
		}
		nr.Seeds = make([]PathID, nseeds)
		for j := range nr.Seeds {
			id, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			nr.Seeds[j] = PathID(id)
		}
		nvis, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nvis > uint64(len(d.buf)) {
			return nil, fmt.Errorf("euler: node record claims %d visited in %d bytes", nvis, len(d.buf))
		}
		nr.Visited = make([]graph.VertexID, nvis)
		prev := int64(0)
		for j := range nr.Visited {
			dv, err := d.varint()
			if err != nil {
				return nil, err
			}
			prev += dv
			nr.Visited[j] = graph.VertexID(prev)
		}
	}
	nbodies, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nbodies > uint64(len(d.buf)) {
		return nil, fmt.Errorf("euler: run record claims %d bodies in %d bytes", nbodies, len(d.buf))
	}
	r.Bodies = make(map[PathID][]byte, nbodies)
	for i := uint64(0); i < nbodies; i++ {
		id, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		body, err := take("path body")
		if err != nil {
			return nil, err
		}
		r.Bodies[PathID(id)] = body
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}
