package euler

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/spill"
)

// failingStore wraps a DiskStore and fails operations after a countdown,
// for injecting storage faults into Phase 1 (Put) and Phase 3 (Get).
type failingStore struct {
	inner    spill.Store
	putsLeft int64 // fail Put when it reaches zero; negative disables
	getsLeft int64 // fail Get when it reaches zero; negative disables
}

// newFailingStore returns a failingStore over a DiskStore in a test
// directory, closed when the test ends.
func newFailingStore(t *testing.T, putsLeft, getsLeft int64) *failingStore {
	t.Helper()
	ds, err := spill.NewDiskStore(filepath.Join(t.TempDir(), "bodies.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return &failingStore{inner: ds, putsLeft: putsLeft, getsLeft: getsLeft}
}

func (f *failingStore) Put(id int64, data []byte) error {
	if atomic.AddInt64(&f.putsLeft, -1) == -1 {
		return fmt.Errorf("injected put failure at record %d", id)
	}
	return f.inner.Put(id, data)
}

func (f *failingStore) Get(id int64) ([]byte, error) {
	if atomic.AddInt64(&f.getsLeft, -1) == -1 {
		return nil, fmt.Errorf("injected get failure at record %d", id)
	}
	return f.inner.Get(id)
}

func (f *failingStore) Len() int     { return f.inner.Len() }
func (f *failingStore) Close() error { return f.inner.Close() }

func TestPhase1SpillFailureSurfaces(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(8, 61))
	a := partition.LDG(g, 2, 1)
	store := newFailingStore(t, 2, -1<<40)
	_, err := Run(g, a, Config{Store: store})
	if err == nil || !strings.Contains(err.Error(), "injected put failure") {
		t.Fatalf("err = %v, want injected put failure", err)
	}
}

func TestPhase3ReadFailureSurfaces(t *testing.T) {
	g, _ := gen.EulerianRMAT(gen.DefaultRMAT(8, 61))
	a := partition.LDG(g, 2, 1)
	store := newFailingStore(t, -1<<40, -1<<40)
	res, err := Run(g, a, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// Arm the Get failure for the unroll only.
	atomic.StoreInt64(&store.getsLeft, 3)
	_, err = res.Registry.CollectCircuit()
	if err == nil || !strings.Contains(err.Error(), "injected get failure") {
		t.Fatalf("err = %v, want injected get failure", err)
	}
}

func TestUnrollBeforeRun(t *testing.T) {
	reg := NewRegistry(nil, 10, 1)
	if err := reg.Unroll(func(Step) error { return nil }); err == nil {
		t.Fatal("Unroll without a run should fail")
	}
}

func TestUnrollEmitError(t *testing.T) {
	g := gen.Torus(6, 6)
	a := partition.LDG(g, 2, 1)
	res, err := Run(g, a, Config{})
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("emit rejected")
	count := 0
	err = res.Registry.Unroll(func(Step) error {
		count++
		if count > 5 {
			return boom
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "emit rejected") {
		t.Fatalf("err = %v, want emit error", err)
	}
}

func TestCorruptedBodySurfaces(t *testing.T) {
	// A registry pointing at garbage bodies must fail decoding, not emit a
	// wrong circuit.
	// A kept body is decoded where it is put, a spilled one when Unroll
	// reaches it.
	ds, err := spill.NewDiskStore(filepath.Join(t.TempDir(), "bodies.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, store := range []spill.Store{nil, ds} {
		reg := NewRegistry(store, 4, 1)
		err := reg.putBody(1, []byte{0xFF, 0xFF, 0xFF})
		if err == nil {
			res := &Phase1Result{Recs: []PathRec{{ID: 1, Type: IVCycle, Src: 0, Dst: 0}}}
			if err := reg.Absorb(0, res, true); err != nil {
				t.Fatal(err)
			}
			_, err = reg.CollectCircuit()
		}
		if err == nil {
			t.Fatalf("corrupted body accepted (store %v)", store)
		}
	}
}
