package euler

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/spill"
)

// progDeps are the run-wide effects the per-partition program needs: where
// path bodies go, the global visited-vertex query, and the registry absorb
// path.  The single-process driver wires them straight into its Registry;
// a cluster worker node wires them into a sideband that ships to the
// coordinator at each barrier, so the program itself never assumes shared
// memory.
type progDeps struct {
	bodies  bodySink
	visited func(graph.VertexID) bool
	absorb  func(w int, res *Phase1Result, isRoot bool) error
	// record, when non-nil, snapshots every computing node's Phase 1
	// outcome for delta retention (see delta.go).
	record func(w, s int, res *Phase1Result, state *PartState)
	// replay, when non-nil, returns the retained record to replay for a
	// node instead of touring it, or nil to compute normally.
	replay func(w, s int) *NodeRecord
	// init supplies spilled leaf states when the plan was built out of
	// core (it holds no leaves): superstep 0 loads worker w's state from
	// init under key int64(w).
	init spill.Store
}

// bodySink is where Phase 1 puts the bodies it tours, under their IDs.
// Exactly one of its funcs is set.  typed takes a body as typed items,
// with the vertex its first item leaves from, and keeps the slice: the
// tour then writes its bodies into a fresh block that typed's holder
// owns.  encoded takes a body as appendBody bytes and must not keep the
// slice: the encoder runs only for a sink that sends bodies out of the
// process or spills them.
type bodySink struct {
	typed   func(PathID, graph.VertexID, []bodyItem) error
	encoded func(PathID, []byte) error
}

// workerState is the per-worker mutable state of one run.  It holds no
// working memory: that belongs to the engine slot running the worker.
type workerState struct {
	state   *PartState
	parked  map[int32][]RemoteEdge
	reports []PartReport
	// carried is the distinct-vertex count of state between tours: a
	// post-tour state's vertices are exactly its boundary vertices (every
	// OB-pair endpoint has a remote edge or a stub), which Phase 1 counts.
	carried int64
	// parkBuf is reused across levels for msgParked payloads, double-
	// buffered by superstep parity: a payload sent at superstep s is
	// read by its receiver during s+1, so the buffer of parity s is
	// free again at s+2 (after the barrier).
	parkBuf [2][]byte
}

// partProgram is the paper's partition-centric algorithm as a bsp.Program
// over a plan slice: worker w hosts one (possibly merged) partition, one
// superstep per merge-tree level plus one.  The engine instance hosting it
// may cover only [plan.Lo, plan.Hi) of the job's workers; everything the
// program touches is local except the three progDeps seams.
type partProgram struct {
	plan    *Plan
	deps    progDeps
	workers []*workerState // indexed w - plan.Lo
	// scratch and merge are the Phase 1 and merge working memory of each
	// engine slot (indexed by bsp.Context.Slot); see scratch.go for what
	// a state may keep pointing into once its Compute call returns.
	scratch []*phase1Scratch
	merge   []mergeScratch
	// liveLongs[w-plan.Lo][s] is the worker's state size while superstep
	// s ran: Phase 1 input size for computing partitions, the carried
	// state for idle ones (Fig. 8's per-level memory accounting).
	liveLongs [][]int64
}

// newPartProgram builds the program for the plan's hosted worker range,
// run by an engine with the given slot count (bsp.Engine.Slots).
func newPartProgram(plan *Plan, deps progDeps, slots int) *partProgram {
	local := plan.Hi - plan.Lo
	p := &partProgram{plan: plan, deps: deps, merge: make([]mergeScratch, slots)}
	p.workers = make([]*workerState, local)
	for i := range p.workers {
		p.workers[i] = &workerState{parked: plan.Parked[i]}
	}
	p.scratch = make([]*phase1Scratch, slots)
	for i := range p.scratch {
		p.scratch[i] = newPhase1Scratch()
	}
	p.liveLongs = make([][]int64, local)
	for i := range p.liveLongs {
		p.liveLongs[i] = make([]int64, plan.Height+1)
	}
	return p
}

// Compute implements bsp.Program; see driver.go for the level-by-level
// narrative.
func (p *partProgram) Compute(ctx *bsp.Context) error {
	w, s := ctx.Worker(), ctx.Superstep()
	plan := p.plan
	wc := p.workers[w-plan.Lo]
	sc, ms := p.scratch[ctx.Slot()], &p.merge[ctx.Slot()]
	var pr PartReport
	computing := false
	replayed := false

	if p.deps.replay != nil {
		if rec := p.deps.replay(w, s); rec != nil {
			// The node's entire leaf-group input is byte-identical to the
			// retained base run: its recorded post-tour state and registry
			// contributions stand in for merge + Phase 1.  Received child
			// states and parked batches are already folded into the
			// recorded state, so the mail is dropped unread.
			st, err := DecodeState(rec.State)
			if err != nil {
				return fmt.Errorf("worker %d superstep %d: decoding retained state: %w", w, s, err)
			}
			if s == 0 && plan.leaves != nil {
				plan.leaves[w-plan.Lo] = leafSlot{} // replaced by the record
			}
			wc.state = st
			res := &Phase1Result{Recs: rec.Recs, Seeds: rec.Seeds, Visited: rec.Visited}
			isRoot := s == plan.Height && w == plan.Root
			if err := p.deps.absorb(w, res, isRoot); err != nil {
				return err
			}
			if p.deps.record != nil {
				p.deps.record(w, s, res, wc.state)
			}
			replayed = true
		}
	}

	if replayed {
		// merge + Phase 1 replaced by the retained record above
	} else if s == 0 {
		t0 := time.Now()
		var leaf leafSlot
		if plan.leaves != nil {
			leaf, plan.leaves[w-plan.Lo] = plan.leaves[w-plan.Lo], leafSlot{}
		} else if p.deps.init != nil {
			var err error
			if leaf.enc, err = p.deps.init.Get(int64(w)); err != nil {
				return fmt.Errorf("loading spilled leaf state %d: %w", w, err)
			}
		} else {
			return fmt.Errorf("worker %d: plan has no leaf states and no init store", w)
		}
		if leaf.state == nil {
			var err error
			if leaf.state, err = DecodeState(leaf.enc); err != nil {
				return fmt.Errorf("loading leaf state %d: %w", w, err)
			}
		}
		pr.CreateObj = time.Since(t0)
		wc.state = leaf.state
		computing = true
	} else {
		var child *PartState
		var delivered [][]RemoteEdge
		// The local engine delivers mail in ascending sender order (its
		// barrier walks workers in ID order); a distributed inbox sees
		// same-node mail before routed mail instead.  Restoring sender
		// order — a no-op locally — keeps parked-batch merge order, and
		// with it the emitted circuit, identical across transports.
		received := ctx.Received()
		sort.SliceStable(received, func(i, j int) bool { return received[i].From < received[j].From })
		for _, msg := range received {
			st, _ := msg.Ref.(*PartState) // a child co-hosted with this worker
			switch {
			case st != nil:
			case len(msg.Payload) == 0:
				return fmt.Errorf("worker %d: empty message from %d", w, msg.From)
			case msg.Payload[0] == msgState:
				t0 := time.Now()
				var err error
				if st, err = DecodeState(msg.Payload[1:]); err != nil {
					return fmt.Errorf("worker %d: decoding child state from %d: %w", w, msg.From, err)
				}
				pr.CopySrc += time.Since(t0)
			case msg.Payload[0] == msgParked:
				t0 := time.Now()
				batch, err := DecodeRemoteBatch(msg.Payload[1:])
				if err != nil {
					return fmt.Errorf("worker %d: decoding parked batch from %d: %w", w, msg.From, err)
				}
				pr.CopySrc += time.Since(t0)
				delivered = append(delivered, batch)
				continue
			default:
				return fmt.Errorf("worker %d: unknown message tag %q", w, msg.Payload[0])
			}
			if child != nil {
				return fmt.Errorf("worker %d superstep %d: two child states", w, s)
			}
			child = st
		}
		if plan.IsParent[s-1][w] {
			if child == nil {
				return fmt.Errorf("worker %d superstep %d: parent missing child state", w, s)
			}
			// Fold the child into this worker's own state.  The pass
			// over the own state is the paper's "copy sink partition"
			// cost; the child and convert fold builds the new level's
			// partition object.
			t0 := time.Now()
			sink, err := ms.merge(wc.state, child, s-1, plan.Mode, delivered)
			if err != nil {
				return fmt.Errorf("worker %d superstep %d: %w", w, s, err)
			}
			pr.CopySink = sink
			pr.CreateObj = time.Since(t0) - sink
			computing = true
		} else if child != nil || len(delivered) > 0 {
			return fmt.Errorf("worker %d superstep %d: unexpected merge input", w, s)
		}
	}

	if computing {
		pr.Level, pr.Part = s, w
		pr.RemoteEdges = int64(wc.state.remoteLen())
		pr.StubGroups = int64(len(wc.state.Stubs))
		if plan.Validate {
			if err := wc.state.CheckParity(); err != nil {
				return fmt.Errorf("worker %d superstep %d: %w", w, s, err)
			}
		}
		res, err := phase1(wc.state, s, p.deps.bodies, p.deps.visited, sc)
		if err != nil {
			return err
		}
		pr.CreateObj += res.Prep
		pr.Phase1 = res.Tour
		pr.Stats = res.Stats
		if plan.Validate && res.Stats.Paths*2 != res.Stats.OB {
			return fmt.Errorf("worker %d superstep %d: %d OB paths for %d OBs (Lemma 1 count violated)",
				w, s, res.Stats.Paths, res.Stats.OB)
		}
		// Phase 1 classified every vertex of the state it toured.
		pr.LongsAtStart = wc.state.longsWith(res.Stats.Boundary + res.Stats.Internal)
		wc.state.Local, wc.state.onGraph = res.OBPairs, nil
		wc.carried = res.Stats.Boundary
		isRoot := s == plan.Height && w == plan.Root
		if err := p.deps.absorb(w, res, isRoot); err != nil {
			return err
		}
		if p.deps.record != nil {
			p.deps.record(w, s, res, wc.state)
		}
		wc.reports = append(wc.reports, pr)
		p.liveLongs[w-plan.Lo][s] = pr.LongsAtStart
	} else if wc.state != nil {
		if replayed {
			wc.carried = int64(sc.intern(wc.state))
		}
		p.liveLongs[w-plan.Lo][s] = wc.state.longsWith(wc.carried)
	}

	if s < plan.Height {
		if target := int(plan.ChildTarget[s][w]); target >= 0 && wc.state != nil {
			// Ownership transfers to the parent: by pointer when this
			// engine instance hosts it, charged the bytes it would cost
			// on the wire; otherwise as the msgState payload.
			if plan.Lo <= target && target < plan.Hi {
				ctx.SendRef(target, wc.state, 1+int64(encodedStateLen(wc.state)))
			} else {
				ctx.Send(target, AppendState([]byte{msgState}, wc.state))
			}
			wc.state = nil
		}
		if batch, ok := wc.parked[int32(s)]; ok && len(batch) > 0 {
			// Deferred transfer: parked edges converting at level s go
			// straight to the ancestor that merges at superstep s+1.
			target := plan.RepAt[s+1][w]
			payload := append(wc.parkBuf[s&1][:0], msgParked)
			payload = AppendRemoteBatch(payload, batch)
			wc.parkBuf[s&1] = payload
			ctx.Send(int(target), payload)
			delete(wc.parked, int32(s))
		}
	}
	if s >= plan.Height {
		ctx.VoteToHalt()
	}
	return nil
}

// parts collects the per-worker reports in worker order (the driver sorts
// them by level afterwards).
func (p *partProgram) parts() []PartReport {
	var out []PartReport
	for _, wc := range p.workers {
		out = append(out, wc.reports...)
	}
	return out
}
