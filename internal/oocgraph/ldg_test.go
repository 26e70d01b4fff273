package oocgraph

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// pageBytes is the decoded size of one page of ph halves.
func pageBytes(ph int64) int64 { return ph * halfBytes }

// buildPagedFile pages the EULGRPH1 file at path under a test temp dir.
func buildPagedFile(t *testing.T, path string, opt BuildOptions) *PagedGraph {
	t.Helper()
	opt.Dir = t.TempDir()
	pg, err := BuildPaged(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// TestPagedLDGMatchesInMemory runs the partitioner through the pager at
// several page sizes under a two-page budget: the assignment must equal
// the in-memory one.  One-half pages put every adjacency list of degree
// two or more through the multi-page scratch path of Adj.
func TestPagedLDGMatchesInMemory(t *testing.T) {
	for name, g := range testFamilies(t) {
		path := writeGraphFile(t, g)
		want := partition.LDG(g, 8, 1)
		for _, ph := range []int64{1, 3, 64, DefaultPageHalves} {
			pg := buildPagedFile(t, path, BuildOptions{PageHalves: ph, MemBytes: 2 * pageBytes(ph)})
			got := partition.LDG(pg, 8, 1)
			pg.Close()
			if !slices.Equal(got.Of, want.Of) {
				t.Fatalf("%s, %d halves per page: paged LDG differs from in-memory LDG", name, ph)
			}
		}
	}
}

// liveWatch is a PagedGraph that records the peak of the process-wide
// resident page bytes, above a baseline, after every Adj call.
type liveWatch struct {
	*PagedGraph
	base, peak int64
}

func (w *liveWatch) Adj(v graph.VertexID) []graph.Half {
	adj := w.PagedGraph.Adj(v)
	if _, _, live := Stats(); live-w.base > w.peak {
		w.peak = live - w.base
	}
	return adj
}

// TestMemBytesHonouredAtDefaultPages holds the pager to a budget of a few
// default-size pages through a whole partitioning run on a graph whose
// adjacency (256 KiB) far exceeds it.
func TestMemBytesHonouredAtDefaultPages(t *testing.T) {
	const budget = 16 << 10
	g := gen.Torus(64, 64)
	pg := buildPagedFile(t, writeGraphFile(t, g), BuildOptions{MemBytes: budget})
	defer pg.Close()
	_, _, base := Stats()
	w := &liveWatch{PagedGraph: pg, base: base}
	partition.LDG(w, 8, 1)
	if w.peak > budget {
		t.Fatalf("resident page bytes peaked at %d, budget is %d", w.peak, budget)
	}
	if w.peak == 0 {
		t.Fatal("no page was ever resident")
	}
}

// TestPagedLDGPageInBound guards the bytes the partitioner pages in on
// the torus-paged input (384x384 torus, 2 MiB budget, default pages), an
// exact count.  Before LDG's BFS and scoring shared one adjacency pass
// and before pages shrank to 4 KiB, this was 6 258 MiB (6 258 faults of
// 1 MiB); one pass over 4 KiB pages pages in 263 MiB.  The bound is
// about twice that, so a second adjacency pass or large pages fail here
// on any machine.
func TestPagedLDGPageInBound(t *testing.T) {
	const boundMiB = 512
	g := gen.Torus(384, 384)
	pg := buildPagedFile(t, writeGraphFile(t, g), BuildOptions{MemBytes: 2 << 20})
	defer pg.Close()
	before, _, _ := Stats()
	got := partition.LDG(pg, 8, 1)
	after, _, _ := Stats()
	pagedIn := float64((after-before)*pageBytes(DefaultPageHalves)) / (1 << 20)
	t.Logf("LDG paged in %.1f MiB in %d faults", pagedIn, after-before)
	if pagedIn > boundMiB {
		t.Fatalf("LDG paged in %.1f MiB, bound is %d MiB", pagedIn, boundMiB)
	}
	// The graph spans several scatter buckets; the assignment must still
	// equal the in-memory one.
	if want := partition.LDG(g, 8, 1); !slices.Equal(got.Of, want.Of) {
		t.Fatal("paged LDG differs from in-memory LDG")
	}
}

// BenchmarkPagedLDG is the partition stage of the torus-paged workload:
// build the paged CSR of a 384x384 torus file under a 2 MiB budget at the
// default page size, then run LDG through it.
func BenchmarkPagedLDG(b *testing.B) {
	g := gen.Torus(384, 384)
	path := writeGraphFile(b, g)
	opt := BuildOptions{Dir: b.TempDir(), MemBytes: 2 << 20}
	b.ReportAllocs()
	before, _, _ := Stats()
	for b.Loop() {
		pg, err := BuildPaged(path, opt)
		if err != nil {
			b.Fatal(err)
		}
		partition.LDG(pg, 8, 1)
		if err := pg.Close(); err != nil {
			b.Fatal(err)
		}
	}
	after, _, _ := Stats()
	faults := float64(after-before) / float64(b.N)
	b.ReportMetric(faults, "faults/op")
	b.ReportMetric(faults*float64(pageBytes(DefaultPageHalves))/(1<<20), "pagein_MiB/op")
}
