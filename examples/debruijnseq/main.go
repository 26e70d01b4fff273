// De Bruijn sequence generation — the classic constructive application of
// directed Euler circuits: B(k, n), the shortest cyclic sequence containing
// every length-n string over a k-letter alphabet exactly once, served
// through the "debruijn" workload kind.  The example is a thin client of
// the jobkind registry: the same normalised request a
// {"kind":"debruijn"} submission resolves to, solved through the
// registry's library path and re-verified with the kind's verifier.
//
//	go run ./examples/debruijnseq
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/graph"
	"repro/internal/jobkind"
)

const (
	k = 2  // alphabet size
	n = 12 // window length: B(2,12) has 4096 symbols
)

func main() {
	kind := jobkind.MustGet("debruijn")
	req := jobkind.Request{DeBruijn: &jobkind.DeBruijnSpec{Alphabet: k, Length: n}}
	if err := kind.Normalize(&req); err != nil {
		log.Fatal(err)
	}

	// Solve in-process: the kind walks an Euler circuit of the directed
	// de Bruijn graph on (n-1)-mers, one appended symbol per edge.  The
	// sink frame packs each symbol into Step.Edge.
	var steps []graph.Step
	if err := kind.Solve(context.Background(), req, nil, nil, func(st graph.Step) error {
		steps = append(steps, st)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("de Bruijn sequence B(%d,%d): %d symbols\n", k, n, len(steps))

	// Re-verify, as the load harness does for every served result: every
	// length-n window occurs exactly once cyclically.
	if err := kind.Verify(req, nil, steps); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: all %d length-%d windows occur exactly once ✓\n", len(steps), n)

	var b strings.Builder
	for _, st := range steps[:64] {
		fmt.Fprintf(&b, "%d", st.Edge)
	}
	fmt.Printf("first 64 symbols: %s…\n", b.String())

	// The wire form GET /v1/jobs/{id}/circuit streams:
	fmt.Printf("first wire line: %s", kind.AppendLine(nil, steps[0]))
}
