package euler

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/partition"
)

// TestPlanSliceRoundTrip encodes plan slices for split worker ranges and
// checks every field a worker reads survives the trip.
func TestPlanSliceRoundTrip(t *testing.T) {
	g := gen.Torus(10, 7)
	a := partition.LDG(g, 6, 1)
	plan, _, err := BuildPlan(g, a, Config{Mode: ModeProposed, Validate: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range [][2]int{{0, 3}, {3, 6}, {0, 6}, {2, 4}} {
		lo, hi := r[0], r[1]
		enc, err := plan.EncodeSlice(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePlanSlice(enc)
		if err != nil {
			t.Fatalf("slice [%d, %d): %v", lo, hi, err)
		}
		if got.NumWorkers != plan.NumWorkers || got.NumVertices != plan.NumVertices ||
			got.Height != plan.Height || got.Root != plan.Root ||
			got.Mode != plan.Mode || got.Validate != plan.Validate ||
			got.Lo != lo || got.Hi != hi {
			t.Fatalf("slice [%d, %d) header mismatch: %+v", lo, hi, got)
		}
		if !reflect.DeepEqual(got.ChildTarget, plan.ChildTarget) {
			t.Fatalf("slice [%d, %d): childTarget differs", lo, hi)
		}
		if !reflect.DeepEqual(got.IsParent, plan.IsParent) {
			t.Fatalf("slice [%d, %d): isParent differs", lo, hi)
		}
		if !reflect.DeepEqual(got.RepAt, plan.RepAt) {
			t.Fatalf("slice [%d, %d): repAt differs", lo, hi)
		}
		for w := lo; w < hi; w++ {
			if leaf := got.leaves[w-lo]; leaf.state != nil || string(leaf.enc) != string(EncodeState(plan.leaves[w].state)) {
				t.Fatalf("worker %d leaf state differs", w)
			}
			gotPool, wantPool := got.Parked[w-lo], plan.Parked[w]
			if len(gotPool) != len(wantPool) {
				t.Fatalf("worker %d parked pool size %d, want %d", w, len(gotPool), len(wantPool))
			}
			for lvl, batch := range wantPool {
				if !reflect.DeepEqual(gotPool[lvl], batch) {
					t.Fatalf("worker %d parked level %d differs", w, lvl)
				}
			}
		}
	}

	// Encoding the leaves first, as the coordinator does, changes no byte.
	decoded, err := plan.EncodeSlice(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	plan.encodeLeaves()
	if encoded, err := plan.EncodeSlice(0, 6); err != nil || string(encoded) != string(decoded) {
		t.Fatalf("slice of encoded leaves differs from slice of decoded leaves (err %v)", err)
	}

	if _, err := plan.EncodeSlice(4, 2); err == nil {
		t.Fatal("inverted slice range accepted")
	}
	if _, err := DecodePlanSlice([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated plan slice accepted")
	}
}

// TestWorkerResultRoundTrip checks the node job payload encoding.
func TestWorkerResultRoundTrip(t *testing.T) {
	g := gen.Torus(6, 6)
	a := partition.LDG(g, 4, 1)
	plan, _, err := BuildPlan(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := plan.EncodeSlice(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := DecodePlanSlice(enc)
	if err != nil {
		t.Fatal(err)
	}

	// Drive the worker program to completion over a local transport (a
	// full-range node) so the result payload carries real reports.
	engine := bsp.New(4, bsp.WithTransport(bsp.LocalTransport{}))
	wp := NewWorkerProgram(slice, engine.Slots())
	metrics, err := engine.Run(wp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeWorkerResult(wp.Result(metrics))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lo != 0 || res.Hi != 4 {
		t.Fatalf("result range [%d, %d), want [0, 4)", res.Lo, res.Hi)
	}
	if len(res.Parts) == 0 {
		t.Fatal("no part reports in result")
	}
	if len(res.LiveLongs) != 4 {
		t.Fatalf("%d liveLongs rows, want 4", len(res.LiveLongs))
	}
	if res.Metrics.Supersteps != metrics.Supersteps ||
		res.Metrics.Messages != metrics.Messages ||
		res.Metrics.Bytes != metrics.Bytes ||
		res.Metrics.SumCompute != metrics.SumCompute {
		t.Fatalf("metrics mismatch: %+v vs %+v", res.Metrics, metrics)
	}
}

// TestAbsorbSinkBandRoundTrip pushes a worker program's band through an
// AbsorbSink and checks the registry receives the records and bodies a
// local run's shared-memory absorption would.
func TestAbsorbSinkBandRoundTrip(t *testing.T) {
	g := gen.RingOfCliques(4, 5)
	a := partition.LDG(g, 4, 1)
	cfg := Config{}
	plan, _, err := BuildPlan(g, a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Local reference run.
	local, err := Run(g, a, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Worker-program run whose bands feed an AbsorbSink.
	enc, err := plan.EncodeSlice(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := DecodePlanSlice(enc)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(nil, g.NumVertices(), 4)
	sink := NewAbsorbSink(reg)

	loop := &bandLoop{sink: sink}
	engine := bsp.New(4, bsp.WithTransport(loop))
	wp := NewWorkerProgram(slice, engine.Slots())
	loop.wp = wp
	if _, err := engine.Run(wp); err != nil {
		t.Fatal(err)
	}
	if !reg.PromoteFirstSeed() {
		t.Fatal("no master after band absorption")
	}
	if err := reg.Seal(); err != nil {
		t.Fatal(err)
	}
	if reg.NumPaths() != local.Registry.NumPaths() {
		t.Fatalf("registry has %d paths, local %d", reg.NumPaths(), local.Registry.NumPaths())
	}
	for _, rec := range local.Registry.recs {
		got, err := encodedBody(reg, rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := encodedBody(local.Registry, rec.ID); !bytes.Equal(got, want) {
			t.Fatalf("body %d differs from the local run's", rec.ID)
		}
	}
	if reg.Master() != local.Registry.Master() {
		t.Fatalf("master %d, local %d", reg.Master(), local.Registry.Master())
	}
}

// bandLoop is a test transport that loops a single node's sideband
// through an AbsorbSink, mimicking a one-node cluster without sockets.
type bandLoop struct {
	wp   *WorkerProgram
	sink *AbsorbSink
}

func (b bandLoop) Exchange(ex *bsp.Exchange) (bsp.Delivery, error) {
	if err := b.sink.Apply(ex.Step, 0, b.wp.prog.plan.NumWorkers, ex.Sideband); err != nil {
		return bsp.Delivery{}, err
	}
	delta, err := b.sink.TakeDelta(ex.Step)
	if err != nil {
		return bsp.Delivery{}, err
	}
	return bsp.Delivery{Sideband: delta, Halt: !ex.LocalActive, Wire: int64(time.Microsecond)}, nil
}

func (b bandLoop) Close() error { return nil }
