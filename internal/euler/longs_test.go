package euler

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// longsObserver wraps the partition program and, for every (worker,
// superstep), works out independently what the worker's state size must
// be: it rebuilds the state the worker is about to tour with the old
// copying merge from the worker's mail, or takes the state it carries or
// replays, and counts Longs with the map-based reference.
type longsObserver struct {
	t     *testing.T
	inner *partProgram
	mode  Mode
}

func (o *longsObserver) Compute(ctx *bsp.Context) error {
	w, s := ctx.Worker(), ctx.Superstep()
	p, plan := o.inner, o.inner.plan
	wc := p.workers[w-plan.Lo]

	var want int64
	var rec *NodeRecord
	if p.deps.replay != nil {
		rec = p.deps.replay(w, s)
	}
	switch {
	case rec != nil:
		st, err := DecodeState(rec.State)
		if err != nil {
			return err
		}
		want = st.Longs()
	case s == 0:
		st := plan.leaves[w-plan.Lo].state
		if st == nil {
			var err error
			if st, err = DecodeState(plan.leaves[w-plan.Lo].enc); err != nil {
				return err
			}
		}
		want = st.Longs()
	case plan.IsParent[s-1][w]:
		var child *PartState
		var delivered [][]RemoteEdge
		for _, msg := range ctx.Received() {
			var err error
			switch {
			case msg.Ref != nil:
				child = msg.Ref.(*PartState)
			case msg.Payload[0] == msgState:
				child, err = DecodeState(msg.Payload[1:])
			case msg.Payload[0] == msgParked:
				var batch []RemoteEdge
				batch, err = DecodeRemoteBatch(msg.Payload[1:])
				delivered = append(delivered, batch)
			}
			if err != nil {
				return err
			}
		}
		merged, err := oldMergeStates(cloneState(wc.state), child, s-1, o.mode, delivered)
		if err != nil {
			return err
		}
		want = merged.Longs()
	case wc.state != nil:
		want = wc.state.Longs() // carried, idle
	}

	if err := p.Compute(ctx); err != nil {
		return err
	}
	if got := p.liveLongs[w-plan.Lo][s]; got != want {
		o.t.Errorf("worker %d superstep %d: run counted %d Longs, the reference count is %d", w, s, got, want)
	}
	return nil
}

// runObserved is Run with the longsObserver between engine and program.
// replay, when non-nil, is a prior run's record to replay from.
func runObserved(t *testing.T, g *graph.Graph, a partition.Assignment, mode Mode, replay *RunRecord) *RunRecord {
	t.Helper()
	plan, _, err := BuildPlan(g, a, Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if replay != nil {
		plan.encodeLeaves() // as Run does; the recording run keeps them decoded
	}
	planBytes, err := plan.EncodeSlice(0, plan.NumWorkers)
	if err != nil {
		t.Fatal(err)
	}
	registry := NewRegistry(nil, g.NumVertices(), plan.NumWorkers)
	recorder := &runRecorder{}
	deps := progDeps{bodies: registry.sink(), visited: registry.IsVisited, absorb: registry.Absorb, record: recorder.record}
	var set map[nodeKey]*NodeRecord
	if replay != nil {
		set = buildReplaySet(plan, replay)
		if len(set) == 0 {
			t.Fatal("an identical re-run replays nothing")
		}
		if err := restoreBodies(registry, set, replay.Bodies); err != nil {
			t.Fatal(err)
		}
		deps.replay = func(w, s int) *NodeRecord { return set[nodeKey{w, s}] }
	}
	engine := bsp.New(plan.NumWorkers, bsp.WithTransport(bsp.LocalTransport{}))
	program := newPartProgram(plan, deps, engine.Slots())
	if _, err := engine.Run(&longsObserver{t: t, inner: program, mode: mode}); err != nil {
		t.Fatal(err)
	}
	for _, pr := range program.parts() {
		if live := program.liveLongs[pr.Part][pr.Level]; pr.LongsAtStart != live {
			t.Errorf("L%d P%d: LongsAtStart %d, live series %d", pr.Level, pr.Part, pr.LongsAtStart, live)
		}
	}
	if !registry.PromoteFirstSeed() {
		t.Fatal("run completed without a master cycle")
	}
	if err := registry.Seal(); err != nil {
		t.Fatal(err)
	}
	nodes := recorder.sorted()
	bodies, err := collectBodies(registry, nodes, set, replay)
	if err != nil {
		t.Fatal(err)
	}
	return &RunRecord{PlanBytes: planBytes, Nodes: nodes, Bodies: bodies}
}

// TestLongsMatchReference checks the Fig. 8 accounting the run keeps from
// Phase 1's vertex count against PartState.Longs at every (worker,
// superstep): every generator family, every mode, 1, 2, 5 and 8 parts
// (five leaves idle, carried states in the tree), and once more with
// every node replayed from the first run's record.
func TestLongsMatchReference(t *testing.T) {
	rmat, _ := gen.EulerianRMAT(gen.DefaultRMAT(9, 17))
	families := map[string]*graph.Graph{
		"torus":           gen.Torus(12, 8),
		"cycle":           gen.Cycle(64),
		"complete-odd":    gen.CompleteOdd(9),
		"ring-of-cliques": gen.RingOfCliques(6, 7),
		"random-eulerian": gen.RandomEulerian(120, 4, 30, rand.New(rand.NewSource(5))),
		"hypercube":       gen.Hypercube(6),
		"bipartite":       gen.CompleteBipartite(6, 8),
		"rmat":            rmat,
	}
	for name, g := range families {
		for _, parts := range []int32{1, 2, 5, 8} {
			a := partition.LDG(g, parts, 1)
			for _, mode := range allModes {
				t.Run(fmt.Sprintf("%s/parts=%d/%v", name, parts, mode), func(t *testing.T) {
					record := runObserved(t, g, a, mode, nil)
					runObserved(t, g, a, mode, record)
				})
			}
		}
	}
}

// TestRecordedCumulativeLongs holds the per-level state-size series, and
// the BSP message volume, of the benchmark's rmat-solve input and of
// `eulerbench fig8`'s two inputs (scale 0.01), in the modes those two run,
// to the values the map-based accounting produced before it left the run:
// equal to the Long.
func TestRecordedCumulativeLongs(t *testing.T) {
	if testing.Short() {
		t.Skip("five solves of 1 M-edge graphs")
	}
	type series struct {
		longs           []int64
		messages, bytes int64
	}
	cases := []struct {
		name     string
		vertices int64
		ldgSeed  int64
		want     map[Mode]series
	}{
		{"rmat-solve", 400_000, 1, map[Mode]series{
			ModeCurrent: {[]int64{4007224, 2538496, 2096237, 1241798}, 7, 12757423},
		}},
		{"fig8 G40/P8", 400_000, 42, map[Mode]series{
			ModeCurrent:  {[]int64{4009811, 2552301, 2115086, 1248351}, 7, 10941348},
			ModeProposed: {[]int64{2615900, 1256945, 1236997, 1248351}, 15, 4882853},
		}},
		{"fig8 G50/P8", 490_000, 42, map[Mode]series{
			ModeCurrent:  {[]int64{4885709, 3062469, 2534019, 1493807}, 7, 15531676},
			ModeProposed: {[]int64{3200241, 1500571, 1476557, 1493807}, 15, 5798996},
		}},
	}
	for _, c := range cases {
		g, _ := gen.EulerianRMAT(gen.RMATParams{Vertices: c.vertices, AvgDegree: 5, A: 0.57, B: 0.19, C: 0.19, Seed: 42})
		a := partition.LDG(g, 8, c.ldgSeed)
		for mode, want := range c.want {
			res, err := Run(g, a, Config{Mode: mode})
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, mode, err)
			}
			var got series
			for _, l := range res.Report.Levels {
				got.longs = append(got.longs, l.CumulativeLongs)
			}
			got.messages, got.bytes = res.Report.BSP.Messages, res.Report.BSP.Bytes
			if !slices.Equal(got.longs, want.longs) || got.messages != want.messages || got.bytes != want.bytes {
				t.Errorf("%s %v:\n have %+v\n want %+v", c.name, mode, got, want)
			}
		}
	}
}
