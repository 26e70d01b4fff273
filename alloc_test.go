package euler

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/oocgraph"
)

const allocLedgerFile = "testdata/alloc_ledger.txt"

// raceEnabled is set by race_test.go when the binary is built with -race,
// whose instrumentation allocates on its own.
var raceEnabled bool

// ledgerRow is one solve of the allocation ledger.  run is handed the
// step sink and returns after the solve; everything outside run (graph
// generation, the retained record a delta starts from, the paged input
// file) is set up untimed.
type ledgerRow struct {
	name  string
	edges int64 // steps the circuit must have
	run   func(t *testing.T, emit func(Step) error)
}

// ledgerRows are the ledger's solves, in the file's order.
func ledgerRows(t *testing.T) []ledgerRow {
	rmat, _ := NewEulerianRMAT(50_000, 5, 42)
	solve := func(g *Graph, opts ...Option) func(*testing.T, func(Step) error) {
		return func(t *testing.T, emit func(Step) error) {
			if _, err := FindCircuitStream(g, emit, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	var rows []ledgerRow
	for _, parts := range []int32{1, 2, 8, 16} {
		rows = append(rows, ledgerRow{fmt.Sprintf("rmat50k/parts=%d", parts), rmat.NumEdges(),
			solve(rmat, WithPartitions(parts))})
	}
	for _, mode := range []Mode{ModeDedup, ModeProposed} {
		rows = append(rows, ledgerRow{fmt.Sprintf("rmat50k/parts=8/%v", mode), rmat.NumEdges(),
			solve(rmat, WithPartitions(8), WithMode(mode))})
	}
	torus := NewTorus(256, 256)
	rows = append(rows, ledgerRow{"torus256/parts=8", torus.NumEdges(), solve(torus, WithPartitions(8))})
	cliques := NewRingOfCliques(512, 13)
	rows = append(rows, ledgerRow{"cliques512x13/parts=16", cliques.NumEdges(), solve(cliques, WithPartitions(16))})

	// Out of core: a 192x192 torus file paged through a 512 KiB budget.
	// The row covers BuildPaged and the solve; writing the file does not.
	paged := NewTorus(192, 192)
	dir := t.TempDir()
	path := filepath.Join(dir, "torus.bin")
	if err := graph.WriteFile(path, paged); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"paged", "spill"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rows = append(rows, ledgerRow{"paged-torus192/parts=8", paged.NumEdges(), func(t *testing.T, emit func(Step) error) {
		pg, err := oocgraph.BuildPaged(path, oocgraph.BuildOptions{Dir: filepath.Join(dir, "paged"), MemBytes: 512 << 10})
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Close()
		if _, err := FindCircuitStreamSource(pg, filepath.Join(dir, "spill"), emit, WithPartitions(8)); err != nil {
			t.Fatal(err)
		}
	}})

	// Retention, then a one-triangle delta on the retained record.
	opts := []Option{WithPartitions(16)}
	var retained []byte
	rows = append(rows, ledgerRow{"cliques512x13/parts=16/retain", cliques.NumEdges(), func(t *testing.T, emit func(Step) error) {
		var err error
		if _, retained, err = FindCircuitStreamRetain(cliques, emit, opts...); err != nil {
			t.Fatal(err)
		}
	}})
	patched := withTriangle(cliques, 0, 1, 2)
	rows = append(rows, ledgerRow{"cliques512x13/parts=16/delta", patched.NumEdges(), func(t *testing.T, emit func(Step) error) {
		if _, _, err := FindCircuitStreamDelta(patched, emit, retained, opts...); err != nil {
			t.Fatal(err)
		}
	}})
	return rows
}

// withTriangle returns g plus the triangle a-b-c, which keeps every
// degree even.
func withTriangle(g *Graph, a, b, c int64) *Graph {
	bld := NewBuilder(g.NumVertices(), int(g.NumEdges())+3)
	for id := int64(0); id < g.NumEdges(); id++ {
		e := g.Edge(id)
		bld.AddEdge(e.U, e.V)
	}
	bld.AddEdge(a, b)
	bld.AddEdge(b, c)
	bld.AddEdge(c, a)
	return bld.Build()
}

// readLedger parses the ledger file: the toolchain it was recorded with,
// then one "<row> <bytes>" line per row.
func readLedger(t *testing.T) (toolchain string, rows map[string]uint64, order []string) {
	f, err := os.Open(allocLedgerFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows = make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", allocLedgerFile, line)
		}
		if fields[0] == "toolchain" {
			toolchain = fields[1]
			continue
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", allocLedgerFile, line, err)
		}
		rows[fields[0]] = n
		order = append(order, fields[0])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return toolchain, rows, order
}

// TestAllocationLedger holds every row's total allocation to the bytes
// recorded in testdata/alloc_ledger.txt, within 1 % either way, solving
// under GOMAXPROCS 1, where a solve allocates the same bytes run after
// run.  Growing past a row is a regression; falling below it by more
// than 1 % means the row is stale.  Either way the row is refreshed in
// the change that moves it, with the reason in CHANGES.md; the failure
// message prints the line to record.  The bytes depend on the Go
// release, so the test runs only under the toolchain the file names.
func TestAllocationLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the ledger is recorded without it")
	}
	toolchain, want, order := readLedger(t)
	if v := runtime.Version(); v != toolchain {
		t.Skipf("the ledger was recorded with %s, this is %s", toolchain, v)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	rows := ledgerRows(t)
	seen := make(map[string]bool)
	for _, row := range rows {
		seen[row.name] = true
		var n int64
		emit := func(Step) error { n++; return nil }
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		row.run(t, emit)
		runtime.ReadMemStats(&after)
		if n != row.edges {
			t.Fatalf("%s: circuit has %d steps, graph %d edges", row.name, n, row.edges)
		}
		got := after.TotalAlloc - before.TotalAlloc
		w, ok := want[row.name]
		switch {
		case !ok:
			t.Errorf("%s: no ledger row; record %q", row.name, fmt.Sprintf("%s %d", row.name, got))
		case math.Abs(float64(got)-float64(w)) > 0.01*float64(w):
			t.Errorf("%s: allocated %d bytes (%.2f MiB), ledger %d (%.2f MiB), %+.1f %%; record %q",
				row.name, got, mib(got), w, mib(w), 100*(float64(got)/float64(w)-1),
				fmt.Sprintf("%s %d", row.name, got))
		default:
			t.Logf("%s: %.2f MiB (ledger %.2f MiB)", row.name, mib(got), mib(w))
		}
	}
	for _, name := range order {
		if !seen[name] {
			t.Errorf("%s: ledger row without a solve", name)
		}
	}
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
