package euler

import (
	"fmt"
	"math"
	"sort"

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
// circuit and its steps go straight to emit.  Otherwise where a pool walk
// splices in depends on walks expanded after the master's, so every root
// expands before the stitch emits anything: the walks are logged as runs
// of typed body items, and the stitch reads their steps back off the
// bodies.  An encoded body (spilled, absorbed or restored) is decoded
// once for this, and the typed copy is kept until the stitch is done.
// Either way emit may have received a prefix of the circuit when Unroll
// returns an error.
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
		bodies:  r.typed,
	}
	if len(seeds) == 0 {
		w.emit = emit
	} else {
		// About one run per record: every body's edges run back to back
		// unless a splice or a path reference cuts them.
		w.log = make([]stepRun, 0, len(r.recs))
		if r.store != nil || r.encoded != nil || r.typed == nil {
			w.bodies = make([][]bodyItem, len(r.recs))
			copy(w.bodies, r.typed)
		}
	}

	// Expand each root (the master, plus any floating seed not already
	// spliced into an earlier walk) into a closed walk of original edges.
	var starts []int // where each root's walk begins
	for _, root := range append([]PathID{master}, seeds...) {
		if !w.takeID(root) {
			continue
		}
		starts = append(starts, w.steps)
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
	starts = append(starts, w.steps)
	return stitchEmit(&runLog{bodies: w.bodies, recs: r.recs, runs: w.log}, starts, r.numVerts, emit)
}

// circuitCap is the capacity to give a buffer for the steps the sealed
// records imply, which is exact for a registry the driver built.  Item
// counts can also arrive over the cluster wire, so an absurd count is
// dropped and the buffer grows by append instead.
func circuitCap(steps int64) int {
	const trusted = 1 << 28 // steps; 6 GiB of buffer
	if steps < 0 || steps > trusted {
		return 0
	}
	return int(steps)
}

// stepRun is a stretch of a logged walk: the |n| edge items from index
// lo of the typed body at pathMap rank k, emitted back to back from
// position at on, from lo+|n|-1 down to lo when n is negative.  A logged
// walk has at most 2³¹−1 steps.
type stepRun struct {
	at, k, lo, n int32
}

// size returns the number of steps the run emits.
func (r *stepRun) size() int { return int(max(r.n, -r.n)) }

// runLog is the expanded roots' steps, logged as runs and read back by
// position off the typed bodies (by pathMap rank) and their records.
type runLog struct {
	bodies [][]bodyItem
	recs   []PathRec
	runs   []stepRun
}

// find returns the index of the run holding position at.
func (l *runLog) find(at int) int {
	return sort.Search(len(l.runs), func(r int) bool { return int(l.runs[r].at) > at }) - 1
}

// steps returns the steps at positions lo..hi-1, built in *buf; hi-lo
// is at most stitchChunk.
func (l *runLog) steps(lo, hi int, buf *[]Step) []Step {
	if *buf == nil {
		*buf = make([]Step, stitchChunk)
	}
	out := (*buf)[:hi-lo]
	for r, j := l.find(lo), 0; j < len(out); r++ {
		run := &l.runs[r]
		body, src := l.bodies[run.k], l.recs[run.k].Src
		e := lo + j - int(run.at) // the run's first step to copy
		n := min(len(out)-j, run.size()-e)
		if run.n > 0 {
			i := int(run.lo) + e
			from := src
			if i > 0 {
				from = body[i-1].to
			}
			for _, it := range body[i : i+n] {
				out[j] = Step{Edge: it.id(), From: from, To: it.to}
				from = it.to
				j++
			}
			continue
		}
		// Backwards, item i runs from its to to where item i-1 ends.
		for i := int(run.lo) + run.size() - 1 - e; n > 0; n-- {
			to := src
			if i > 0 {
				to = body[i-1].to
			}
			out[j] = Step{Edge: body[i].id(), From: body[i].to, To: to}
			i--
			j++
		}
	}
	return out
}

// stitchEmit emits the closed walks at positions starts[i]..starts[i+1]-1
// of the log as one closed walk without building it: it walks the first
// and, at each step, splices every not-yet-used pool walk that passes
// through the step's source vertex — rotated to start there, emitted
// recursively so walks that only touch the circuit transitively still
// merge.  Walks found at one position splice in reverse discovery order
// (discovery is by walk, then position), the order a copy-based
// insert-in-front stitch produces.  Steps are read stitchChunk at a time,
// into one buffer per recursion depth.
//
// The pool index is flat: head[v] starts the chain of pool steps leaving
// v, in discovery order, and a step that meets no pool walk — all but a
// few — costs one load.  Vertices outside [0, numVerts), which only a
// corrupt body can name, share one chain, and far holds the source of
// each step on it.
func stitchEmit(walks *runLog, starts []int, numVerts int64, emit func(Step) error) error {
	var bufs [][]Step
	bufAt := func(depth int) *[]Step {
		for len(bufs) <= depth {
			bufs = append(bufs, nil)
		}
		return &bufs[depth]
	}
	remaining := len(starts) - 2
	poolAt, end := starts[1], starts[len(starts)-1]
	if end-poolAt > math.MaxInt32 {
		return fmt.Errorf("euler: %d floating-cycle steps overflow the stitch index", end-poolAt)
	}
	chain := func(v graph.VertexID) int64 {
		if uint64(v) < uint64(numVerts) {
			return v
		}
		return numVerts
	}
	// Chain links are pool positions plus one; zero ends a chain.
	var head, next, walkOf []int32
	var far map[int32]graph.VertexID
	if remaining > 0 {
		head = make([]int32, numVerts+1)
		next = make([]int32, end-poolAt)
		walkOf = make([]int32, end-poolAt)
	}
	for walk := len(starts) - 2; walk >= 1; walk-- {
		for hi := starts[walk+1]; hi > starts[walk]; {
			lo := max(starts[walk], hi-stitchChunk)
			steps := walks.steps(lo, hi, bufAt(0))
			for j := len(steps) - 1; j >= 0; j-- {
				i, c := lo+j-poolAt, chain(steps[j].From)
				next[i], head[c] = head[c], int32(i+1)
				walkOf[i] = int32(walk)
				if c == numVerts {
					if far == nil {
						far = make(map[int32]graph.VertexID)
					}
					far[int32(i)] = steps[j].From
				}
			}
			hi = lo
		}
	}

	spliced := make([]bool, len(starts))
	var picked []int32 // pool positions found by the probes in progress
	var emitSeq func(lo, hi, depth int) error
	emitSeq = func(lo, hi, depth int) error {
		for ; lo < hi; lo += stitchChunk {
			for _, st := range walks.steps(lo, min(hi, lo+stitchChunk), bufAt(depth)) {
				if remaining > 0 {
					base := len(picked)
					c := chain(st.From)
					for link := head[c]; link != 0; link = next[link-1] {
						if i := link - 1; !spliced[walkOf[i]] && (c < numVerts || far[i] == st.From) {
							spliced[walkOf[i]] = true
							remaining--
							picked = append(picked, i)
						}
					}
					for len(picked) > base {
						i := picked[len(picked)-1]
						picked = picked[:len(picked)-1]
						at, walk := poolAt+int(i), walkOf[i]
						if err := emitSeq(at, starts[walk+1], depth+1); err != nil {
							return err
						}
						if err := emitSeq(starts[walk], at, depth+1); err != nil {
							return err
						}
					}
				}
				if err := emit(st); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := emitSeq(0, poolAt, 0); err != nil {
		return err
	}
	if remaining > 0 {
		return fmt.Errorf("euler: %d closed walks share no vertex with the circuit: input graph is disconnected", remaining)
	}
	return nil
}

// stitchChunk is how many steps the stitch reads at a time.
const stitchChunk = 64

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
	// bodies are the typed bodies by rank: the registry's, or, when the
	// walk is logged and the registry holds encoded bodies, a copy that
	// walk fills with each encoded body it decodes.
	bodies [][]bodyItem
	// arena holds the decoded items of the reversed encoded bodies on
	// the walk's stack when the walk is not logged.
	arena []bodyItem
	// Steps go to emit when it is set, and to log otherwise; steps counts
	// those logged.
	emit  func(Step) error
	log   []stepRun
	steps int
	// rootSteps, first and last describe the current root's walk so far.
	rootSteps   int
	first, last graph.VertexID
}

// itemAt is an item's position: index i of the typed body at pathMap
// rank k, walked backwards when rev is set.
type itemAt struct {
	k, i int32
	rev  bool
}

// logStep logs the edge item at as the walk's next step: the last run
// grows when the item continues it, and a new run starts otherwise.
func (w *walker) logStep(at itemAt) {
	if n := len(w.log); n > 0 {
		r := &w.log[n-1]
		switch {
		case r.k != at.k:
		case !at.rev && r.n > 0 && r.lo+r.n == at.i:
			r.n++
			return
		case at.rev && r.n < 0 && r.lo == at.i+1:
			r.lo--
			r.n--
			return
		}
	}
	n := int32(1)
	if at.rev {
		n = -1
	}
	w.log = append(w.log, stepRun{at: int32(w.steps), k: at.k, lo: at.i, n: n})
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
// item's endpoints swapped.  A typed body is read in place either way.
// An encoded body walked forward is iterated off its bytes; a reversed
// one has to be decoded first, onto the arena, or, in a logged walk,
// into a block of its own that the log's replay reads again, as it
// reads the items a logged walk keeps of a forward one.
func (w *walker) walk(id PathID, forward bool) error {
	r := w.reg
	k, ok := r.rank(id)
	if ok && w.bodies != nil && w.bodies[k] != nil {
		body, src := w.bodies[k], r.recs[k].Src
		for j := range body {
			i := j
			if !forward {
				i = len(body) - 1 - j
			}
			at := itemAt{k: int32(k), i: int32(i), rev: !forward}
			if err := w.item(id, itemOf(body, src, i, !forward), at); err != nil {
				return err
			}
		}
		return nil
	}
	raw, err := r.body(id)
	if err != nil {
		return fmt.Errorf("euler: loading body %d: %w", id, err)
	}
	var src graph.VertexID
	if ok {
		src = r.recs[k].Src
	}
	// A logged walk keeps the typed items of what it decodes, which the
	// log's replay reads again.
	keep := ok && w.log != nil
	if keep && !forward {
		if w.bodies[k], err = appendBodyItems(nil, raw, src); err != nil {
			return badBody(id, err)
		}
		return w.walk(id, forward)
	}
	if forward {
		c, err := newBodyCursor(raw)
		if err != nil {
			return badBody(id, err)
		}
		var kept []bodyItem
		if keep {
			kept = make([]bodyItem, 0, c.n)
		}
		prevTo := src
		for {
			it, more, err := c.next()
			if err != nil {
				return badBody(id, err)
			}
			if !more {
				if keep {
					w.bodies[k] = kept
				}
				return nil
			}
			if it.From != prevTo || it.Ref < 0 {
				return badBody(id, unchained(c.i-1, it, prevTo))
			}
			prevTo = it.To
			var at itemAt
			if keep {
				at = itemAt{k: int32(k), i: int32(len(kept))}
				kept = append(kept, bodyItem{ref: packRef(it.Kind, it.Ref), to: it.To})
			}
			if err := w.item(id, it, at); err != nil {
				return err
			}
		}
	}
	base := len(w.arena)
	if w.arena, err = appendBodyItems(w.arena, raw, src); err != nil {
		return badBody(id, err)
	}
	// Nested walks push and pop above base+n and may move the arena.
	n := len(w.arena) - base
	for i := n - 1; i >= 0; i-- {
		if err := w.item(id, itemOf(w.arena[base:base+n], src, i, true), itemAt{}); err != nil {
			return err
		}
	}
	w.arena = w.arena[:base]
	return nil
}

// itemOf returns item i of a typed body whose first item leaves from
// src, with its endpoints swapped when rev is set.
func itemOf(body []bodyItem, src graph.VertexID, i int, rev bool) Item {
	it := Item{Kind: body[i].kind(), Ref: body[i].id(), From: src, To: body[i].to}
	if i > 0 {
		it.From = body[i-1].to
	}
	if rev {
		it.From, it.To = it.To, it.From
	}
	return it
}

func badBody(id PathID, err error) error {
	return fmt.Errorf("euler: decoding body %d: %w", id, err)
}

// item advances the walk over one oriented item of body id.  at is the
// item's place in a typed body, for the run log; the items of an encoded
// body walked off its bytes or the arena pass the zero itemAt, since
// such a walk is not logged.
func (w *walker) item(id PathID, it Item, at itemAt) error {
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
		if w.emit != nil {
			return w.emit(Step{Edge: it.Ref, From: it.From, To: it.To})
		}
		if w.steps == math.MaxInt32 {
			return fmt.Errorf("euler: a circuit with floating cycles has more than %d steps", math.MaxInt32)
		}
		w.logStep(at)
		w.steps++
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
	steps := make([]Step, 0, circuitCap(r.steps))
	err := r.Unroll(func(s Step) error {
		steps = append(steps, s)
		return nil
	})
	return steps, err
}
