package euler

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Step is one edge traversal of the final Euler circuit, oriented in walk
// order.  It aliases graph.Step so that verifiers and baselines share the
// representation.
type Step = graph.Step

// Unroll performs Phase 3: starting from the master cycle at the root of
// the merge tree, it recursively expands OB-pair path references through
// the spilled bodies, splices anchored cycles at their pivot vertices, and
// emits the complete Euler circuit (Sec. 3.2, Phase 3).
//
// Beyond the paper: the paper's Lemma 3 assumes each (merged) partition's
// local graph is connected, but after Phase 1 the *coarse* graph can
// disconnect even for a connected input — EB cycles absorb edges without
// contributing coarse edges, so a merged partition may fall apart into
// components whose only attachments to the rest of the circuit lie inside
// already-spilled path bodies.  Phase 1 seeds such components as floating
// cycles.  A floating cycle is still anchored at its pivot, so the walk
// of another root splices it if it passes that pivot first; the rest are
// expanded as roots of their own.  Every root expands to a closed walk,
// the walks are edge-disjoint, and in a connected input each shares a
// vertex with the union of the others, so stitching them at shared
// vertices — exactly as sequential Hierholzer merges its cycles — yields
// one closed walk over every edge.
//
// With no floating cycles (the usual case) the master's walk is the
// circuit and its steps go straight to emit.  Otherwise all roots expand
// into one buffer first, because where a pool walk splices in depends on
// walks expanded after the master's.  Either way emit may have received a
// prefix of the circuit when Unroll returns an error.
//
// Unroll verifies completeness: every registered path and cycle must be
// consumed exactly once and the stitched walk must be a single closed
// circuit; otherwise the input graph was disconnected (or the registry is
// corrupt) and an error is returned.
func (r *Registry) Unroll(emit func(Step) error) error {
	master := r.Master()
	if master == 0 {
		return fmt.Errorf("euler: no master cycle registered (run the driver first)")
	}
	if err := r.ensureSealed(); err != nil {
		return err
	}
	seeds := r.Seeds()
	w := &walker{
		reg:     r,
		emitted: make([]uint64, (len(r.recs)+63)/64),
		spliced: make([]int32, len(r.anchorVerts)),
	}
	if len(seeds) == 0 {
		w.emit = emit
	} else {
		w.buf = make([]Step, 0, r.circuitCap())
	}

	// Expand each root (the master, plus any floating seed not already
	// spliced into an earlier walk) into a closed walk of original edges.
	var starts []int // where each root's walk begins in w.buf
	for _, root := range append([]PathID{master}, seeds...) {
		if !w.takeID(root) {
			continue
		}
		starts = append(starts, len(w.buf))
		w.rootSteps = 0
		if err := w.walk(root, true); err != nil {
			return err
		}
		if w.rootSteps == 0 {
			return fmt.Errorf("euler: root cycle %d expanded to an empty walk", root)
		}
		if w.first != w.last {
			return fmt.Errorf("euler: root cycle %d expansion is not closed (%d → %d)",
				root, w.first, w.last)
		}
	}
	if w.consumed != len(r.recs) {
		return fmt.Errorf("euler: circuit incomplete: %d of %d paths/cycles unrolled (registry corruption)",
			w.consumed, len(r.recs))
	}
	if w.emit != nil {
		return nil
	}
	return stitchEmit(w.buf, append(starts, len(w.buf)), r.numVerts, emit)
}

// circuitCap is the capacity to give a buffer for the whole circuit: the
// step count the sealed records imply, which is exact for a registry the
// driver built.  Item counts can also arrive over the cluster wire, so an
// absurd total is dropped and the buffer grows by append instead.
func (r *Registry) circuitCap() int {
	const trusted = 1 << 28 // steps; 6 GiB of buffer
	if r.steps < 0 || r.steps > trusted {
		return 0
	}
	return int(r.steps)
}

// stitchEmit emits the closed walks buf[starts[i]:starts[i+1]] as one
// closed walk without building it: it walks the first and, at each step,
// splices every not-yet-used pool walk that passes through the step's
// source vertex — rotated to start there, emitted recursively so walks
// that only touch the circuit transitively still merge.  Walks found at
// one position splice in reverse discovery order (discovery is by walk,
// then position), the order a copy-based insert-in-front stitch produces.
//
// The pool index is flat: head[v] starts the chain of pool steps leaving
// v, in discovery order, and a step that meets no pool walk — all but a
// few — costs one load.  Vertices outside [0, numVerts), which only a
// corrupt body can name, share one chain.
func stitchEmit(buf []Step, starts []int, numVerts int64, emit func(Step) error) error {
	remaining := len(starts) - 2
	if remaining == 0 {
		for _, s := range buf {
			if err := emit(s); err != nil {
				return err
			}
		}
		return nil
	}
	pool := buf[starts[1]:]
	if len(pool) > math.MaxInt32 {
		return fmt.Errorf("euler: %d floating-cycle steps overflow the stitch index", len(pool))
	}
	chain := func(v graph.VertexID) int64 {
		if uint64(v) < uint64(numVerts) {
			return v
		}
		return numVerts
	}
	// Chain links are pool positions plus one; zero ends a chain.
	head := make([]int32, numVerts+1)
	next := make([]int32, len(pool))
	walkOf := make([]int32, len(pool))
	for walk := len(starts) - 2; walk >= 1; walk-- {
		for at := starts[walk+1] - 1; at >= starts[walk]; at-- {
			i, c := at-starts[1], chain(buf[at].From)
			next[i], head[c] = head[c], int32(i+1)
			walkOf[i] = int32(walk)
		}
	}

	spliced := make([]bool, len(starts))
	var picked []int32 // pool positions found by the probes in progress
	var emitSeq func(steps []Step) error
	emitSeq = func(steps []Step) error {
		for _, st := range steps {
			if remaining > 0 {
				base := len(picked)
				for link := head[chain(st.From)]; link != 0; link = next[link-1] {
					if i := link - 1; !spliced[walkOf[i]] && pool[i].From == st.From {
						spliced[walkOf[i]] = true
						remaining--
						picked = append(picked, i)
					}
				}
				for len(picked) > base {
					i := picked[len(picked)-1]
					picked = picked[:len(picked)-1]
					at, walk := starts[1]+int(i), walkOf[i]
					if err := emitSeq(buf[at:starts[walk+1]]); err != nil {
						return err
					}
					if err := emitSeq(buf[starts[walk]:at]); err != nil {
						return err
					}
				}
			}
			if err := emit(st); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emitSeq(buf[:starts[1]]); err != nil {
		return err
	}
	if remaining > 0 {
		return fmt.Errorf("euler: %d closed walks share no vertex with the circuit: input graph is disconnected", remaining)
	}
	return nil
}

// walker is the state of one Unroll: which paths and anchored cycles
// have been consumed, indexed by the registry's sealed ranks, and where
// the steps land.
type walker struct {
	reg *Registry
	// emitted has one bit per pathMap rank.
	emitted  []uint64
	consumed int
	// spliced counts, per pivot-vertex rank, how many of the cycles
	// anchored there have already been taken, so re-visits continue where
	// the last splice stopped.
	spliced []int32
	// arena holds the items of the reversed bodies on the walk's stack.
	arena []Item
	// Steps go to emit when it is set, to buf otherwise.
	emit func(Step) error
	buf  []Step
	// rootSteps, first and last describe the current root's walk so far.
	rootSteps   int
	first, last graph.VertexID
}

// take marks the path at pathMap rank k consumed, reporting false if it
// already was.
func (w *walker) take(k int) bool {
	if w.emitted[k>>6]&(1<<(uint(k)&63)) != 0 {
		return false
	}
	w.emitted[k>>6] |= 1 << (uint(k) & 63)
	w.consumed++
	return true
}

// takeID is take for a root or an anchored cycle.  An ID the pathMap does
// not hold (a corrupt Phase 1 result off the cluster wire can name one) is
// only counted: its walk finds no body, or the count check catches it.
func (w *walker) takeID(id PathID) bool {
	if k, ok := w.reg.rank(id); ok {
		return w.take(k)
	}
	w.consumed++
	return true
}

// splice unrolls every not-yet-consumed cycle anchored at v.  Splicing may
// recursively pass v again; the per-vertex count makes that re-entrant.
func (w *walker) splice(v graph.VertexID) error {
	k, ok := w.reg.anchorRank(v)
	if !ok {
		return nil
	}
	cycles := w.reg.anchorIDs[w.reg.anchorOff[k]:w.reg.anchorOff[k+1]]
	for int(w.spliced[k]) < len(cycles) {
		id := cycles[w.spliced[k]]
		w.spliced[k]++
		if !w.takeID(id) {
			continue
		}
		if err := w.walk(id, true); err != nil {
			return err
		}
	}
	return nil
}

// walk expands one body.  forward selects the traversal direction: an
// OB-pair edge traversed Dst→Src unrolls its body reversed with each
// item's endpoints swapped.  A forward body is iterated off its encoded
// bytes; a reversed one has to be decoded first, into the shared arena.
func (w *walker) walk(id PathID, forward bool) error {
	body, err := w.reg.body(id)
	if err != nil {
		return fmt.Errorf("euler: loading body %d: %w", id, err)
	}
	c, err := newBodyCursor(body)
	if err != nil {
		return badBody(id, err)
	}
	if forward {
		for {
			it, ok, err := c.next()
			if err != nil {
				return badBody(id, err)
			}
			if !ok {
				return nil
			}
			if err := w.item(id, it); err != nil {
				return err
			}
		}
	}
	base := len(w.arena)
	if w.arena, err = c.appendTo(w.arena); err != nil {
		return badBody(id, err)
	}
	// Nested walks push and pop above len(w.arena) and may move it.
	for i := len(w.arena) - 1; i >= base; i-- {
		it := w.arena[i]
		it.From, it.To = it.To, it.From
		if err := w.item(id, it); err != nil {
			return err
		}
	}
	w.arena = w.arena[:base]
	return nil
}

func badBody(id PathID, err error) error {
	return fmt.Errorf("euler: decoding body %d: %w", id, err)
}

// item advances the walk over one oriented item of body id.
func (w *walker) item(id PathID, it Item) error {
	// The walk is now at it.From: consume any cycles pivoting here.
	if w.reg.anchorScreen.mayHold(it.From) {
		if err := w.splice(it.From); err != nil {
			return err
		}
	}
	switch it.Kind {
	case ItemEdge:
		if w.rootSteps == 0 {
			w.first = it.From
		}
		w.last = it.To
		w.rootSteps++
		st := Step{Edge: it.Ref, From: it.From, To: it.To}
		if w.emit != nil {
			return w.emit(st)
		}
		w.buf = append(w.buf, st)
		return nil
	case ItemPath:
		k, ok := w.reg.rank(it.Ref)
		if !ok {
			return fmt.Errorf("euler: body %d references unknown path %d", id, it.Ref)
		}
		if !w.take(k) {
			return fmt.Errorf("euler: path %d referenced twice", it.Ref)
		}
		sub := &w.reg.recs[k]
		subForward := it.From == sub.Src
		if !subForward && it.From != sub.Dst {
			return fmt.Errorf("euler: body %d enters path %d at %d, which is neither endpoint (%d,%d)",
				id, it.Ref, it.From, sub.Src, sub.Dst)
		}
		return w.walk(it.Ref, subForward)
	}
	return fmt.Errorf("euler: body %d has bad item kind %d", id, it.Kind)
}

// CollectCircuit runs Unroll and gathers the steps in memory.  Intended
// for tests and small graphs; large runs should stream via Unroll.
func (r *Registry) CollectCircuit() ([]Step, error) {
	if err := r.ensureSealed(); err != nil {
		return nil, err
	}
	steps := make([]Step, 0, r.circuitCap())
	err := r.Unroll(func(s Step) error {
		steps = append(steps, s)
		return nil
	})
	return steps, err
}
