package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestQuickEulerizeAlwaysEven checks that Eulerize output has even degree
// everywhere, for arbitrary random multigraphs.
func TestQuickEulerizeAlwaysEven(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int64(nRaw%64) + 3
		m := int(mRaw % 500)
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n, m)
		for i := 0; i < m; i++ {
			u, v := rng.Int63n(n), rng.Int63n(n)
			if u == v {
				v = (v + 1) % n
			}
			b.AddEdge(u, v)
		}
		eg, stats := Eulerize(b.Build())
		if !eg.IsEulerian() {
			return false
		}
		// Edge accounting must balance exactly.
		return eg.NumEdges() == int64(m)+stats.AddedEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEulerizeDegreePreservation checks that eulerizing changes every
// vertex degree by at most the number of times it appeared in the odd set
// (i.e. +1 for odd vertices, 0 for even ones).
func TestQuickEulerizeDegreePreservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int64(nRaw%50) + 3
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n, int(3*n))
		for i := int64(0); i < 3*n; i++ {
			u, v := rng.Int63n(n), rng.Int63n(n)
			if u == v {
				v = (v + 1) % n
			}
			b.AddEdge(u, v)
		}
		g := b.Build()
		eg, _ := Eulerize(g)
		for v := int64(0); v < n; v++ {
			want := g.Degree(v)
			if want%2 == 1 {
				want++
			}
			if eg.Degree(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomEulerianInvariants checks the generator family invariants
// across seeds and sizes.
func TestQuickRandomEulerianInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, walks uint8) bool {
		n := int64(nRaw%80) + 3
		rng := rand.New(rand.NewSource(seed))
		g := RandomEulerian(n, int(walks%10), 6, rng)
		return g.IsEulerian() && graph.IsConnected(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTorusEulerian checks all torus sizes are 4-regular Eulerian.
func TestQuickTorusEulerian(t *testing.T) {
	f := func(wRaw, hRaw uint8) bool {
		w := int64(wRaw%12) + 3
		h := int64(hRaw%12) + 3
		g := Torus(w, h)
		return g.IsEulerian() && graph.IsConnected(g) &&
			g.NumEdges() == 2*w*h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
