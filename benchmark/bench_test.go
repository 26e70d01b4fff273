package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"regexp"
	"testing"
	"time"

	"repro/internal/graph"
)

// inputDigest hashes everything the benchmark generates from a seed: the
// library workloads' graphs, the delta triangles, the upload pool and the
// first jobs of two clients' mixes.
func inputDigest(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	writeGraph := func(g *graph.Graph) {
		if err := graph.Write(h, g); err != nil {
			t.Fatal(err)
		}
	}
	sz := smokeSize
	writeGraph(rmatGraph(sz.rmatVertices, seed))
	writeGraph(rmatGraph(sz.clusterVertices, seed))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		fmt.Fprint(h, triangle(rng, sz.cliques))
	}
	pool, err := uploadPool(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool {
		h.Write(b.data)
	}
	for client := 0; client < 2; client++ {
		mix := newMixer(seed, client, 2, pool, sz)
		for i := 0; i < 200; i++ {
			j, hit := mix.next()
			fmt.Fprint(h, j.kind, j.query, j.contentType, j.key, j.steps, j.minSteps, hit)
			h.Write(j.body)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestInputsFollowFromSeed(t *testing.T) {
	if inputDigest(t, 42) != inputDigest(t, 42) {
		t.Error("the same seed generated different inputs")
	}
	if inputDigest(t, 42) == inputDigest(t, 43) {
		t.Error("different seeds generated the same inputs")
	}
}

// The mix must have the shares its constants state, and must call a
// submission a cache hit exactly when its client submitted that key before.
func TestMixShares(t *testing.T) {
	pool, err := uploadPool(1, smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	mix := newMixer(1, 0, 2, pool, smokeSize)
	const n = 20000
	kinds := map[string]int{}
	seen := map[string]bool{}
	hits := 0
	for i := 0; i < n; i++ {
		j, hit := mix.next()
		if hit != seen[j.key] {
			t.Fatalf("job %d (%s): hit = %v, but key seen before = %v", i, j.key, hit, seen[j.key])
		}
		seen[j.key] = true
		kinds[j.kind]++
		if hit {
			hits++
		}
	}
	near := func(name string, got, want float64) {
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s share %.3f, want about %.2f", name, got, want)
		}
	}
	// Repeats are drawn from the recent fresh jobs, so the shares of fresh
	// jobs are the shares of all jobs.
	near("euler", float64(kinds["euler"])/n, 0.8)
	near("postman", float64(kinds["postman"])/n, 0.1)
	// Every repeat hits, and so does every de Bruijn job after the first
	// of its spec: a quarter, plus three quarters of a tenth.
	near("cache hit", float64(hits)/n, 0.25+0.75*0.1)
}

func TestTriangleKeepsGraphEulerian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		tri := triangle(rng, smokeSize.cliques)
		clique := tri[0][0] / (cliqueSize - 1)
		deg := map[graph.VertexID]int{}
		for _, e := range tri {
			for _, v := range e {
				deg[v]++
				if v/(cliqueSize-1) != clique || v%(cliqueSize-1) == 0 {
					t.Fatalf("triangle %v leaves the interior of clique %d", tri, clique)
				}
			}
		}
		if len(deg) != 3 {
			t.Fatalf("triangle %v does not join three distinct vertices", tri)
		}
		for v, d := range deg {
			if d != 2 {
				t.Fatalf("triangle %v adds %d edges to vertex %d", tri, d, v)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must name exactly the workloads and metrics the program
// emits, inside the limits its contract sets.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, the program has %d", len(bf.Workloads), len(workloads))
	}
	used := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		used[w.Name] = true
	}
	check := func(kind string, file, prog []metricDef, limit int) {
		if len(file) != len(prog) || len(file) > limit {
			t.Fatalf("%d %s metrics in BENCHMARK.json, the program has %d, the limit is %d", len(file), kind, len(prog), limit)
		}
		for i, d := range file {
			p := prog[i]
			if d.Name != p.Name || d.Unit != p.Unit || d.Better != p.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, d, p)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || used[d.Name] {
				t.Errorf("%s metric %q (unit %q): name or unit outside the contract, or name used twice", kind, d.Name, d.Unit)
			}
			used[d.Name] = true
		}
	}
	check("end-to-end", bf.EndToEnd, endToEnd, 16)
	check("per-layer", bf.PerLayer, perLayer, 128)
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if s := bf.bounds()["setup_s"]; s.Unit != "s" || s.Better != "lower" {
		t.Errorf("setup_s must be in s, lower is better: %+v", s)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

// TestSmoke runs all six workloads at about a fiftieth of their size, with
// and without tracing, and checks that every operation is correct — which
// includes the cross-path checksum comparisons — and that every metric of
// BENCHMARK.json comes out with its unit.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				res, err := run(runConfig{
					workload: w, seed: 42, window: 100 * time.Millisecond, trace: trace,
					sizing: smokeSize, workDir: t.TempDir(), outDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
					t.Errorf("correct %v, %d attempted, %d failed", res.Correct, res.Attempted, res.Failed)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %v with unit %q, want unit %q", d.Name, ok, m.Unit, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}
