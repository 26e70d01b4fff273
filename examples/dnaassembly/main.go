// DNA fragment assembly by Eulerian superwalk — the application the
// paper's introduction cites (Pevzner et al., PNAS 2001), served through
// the "superwalk" workload kind.  A synthetic genome is shredded into
// overlapping k-mers; each k-mer is a directed edge between its
// (k-1)-mer prefix and suffix in the de Bruijn graph; an Euler path over
// those edges spells the genome back out.  The example is a thin client
// of the jobkind registry: the same normalised request a
// {"kind":"superwalk"} submission resolves to, solved through the
// registry's library path and re-verified with the kind's verifier.
//
//	go run ./examples/dnaassembly
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/seq"
)

const (
	genomeLen = 5_000
	k         = 21 // k-mer length
	seed      = 7
)

func main() {
	kind := jobkind.MustGet("superwalk")
	req := jobkind.Request{Superwalk: &jobkind.SuperwalkSpec{GenomeLen: genomeLen, K: k, Seed: seed}}
	if err := kind.Normalize(&req); err != nil {
		log.Fatal(err)
	}

	genome := seq.SyntheticGenome(genomeLen, seed)
	fmt.Printf("synthetic genome: %d bases (first 60: %s…)\n", genomeLen, genome[:60])
	fmt.Printf("shredded into %d %d-mers\n", genomeLen-k+1, k)

	// Solve in-process: the kind shreds the same genome server-side,
	// builds the de Bruijn graph, and walks the superwalk.  The sink
	// frame packs one base per Step.Edge.
	var steps []graph.Step
	if err := kind.Solve(context.Background(), req, nil, nil, func(st graph.Step) error {
		steps = append(steps, st)
		return nil
	}); err != nil {
		log.Fatalf("assembly failed: %v", err)
	}

	// Re-verify, as the load harness does for every served result: the
	// assembled string shreds into exactly the input k-mer spectrum —
	// the actual invariant Eulerian assembly guarantees.
	if err := kind.Verify(req, nil, steps); err != nil {
		log.Fatal(err)
	}

	var b strings.Builder
	for _, st := range steps {
		b.WriteByte(byte(st.Edge))
	}
	assembled := b.String()
	if assembled == genome {
		fmt.Printf("assembled %d bases: exact reconstruction ✓\n", len(assembled))
	} else {
		// With repeats longer than k-1 the Euler path need not be unique;
		// any valid superwalk is still a consistent assembly of all
		// k-mers, and Verify above has pinned the spectrum.
		fmt.Printf("assembled %d bases: valid alternative Eulerian assembly (genome has repeats ≥ %d), spectrum identical ✓\n",
			len(assembled), k-1)
	}

	// The wire form GET /v1/jobs/{id}/circuit streams:
	fmt.Printf("first wire line: %s", kind.AppendLine(nil, steps[0]))
}
