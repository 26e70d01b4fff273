// Snow-plow route planning — the arc-routing application the paper cites
// (districting for salt spreading, Euler tours and the Chinese postman),
// served through the "postman" workload kind.  The example is a thin
// client of the jobkind registry: it submits the same normalised request
// an eulerd server would resolve, solves it through the registry's
// library path, and re-verifies the tour with the kind's own verifier.
//
//	go run ./examples/snowplow
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobkind"
)

const (
	blocksX  = 60
	blocksY  = 40
	closures = 0.10 // fraction of streets closed for construction
)

func main() {
	// 1. Build the street network: a grid with ~10% of streets closed,
	//    reduced to its largest connected piece — the same "grid"
	//    generator family a {"kind":"postman"} submission names.
	city := gen.StreetGrid(blocksX, blocksY, closures, 11)
	fmt.Printf("city: %d intersections, %d streets\n", city.NumVertices(), city.NumEdges())

	// 2. Resolve and normalise the request exactly as the server would.
	kind := jobkind.MustGet("postman")
	req := jobkind.Request{Options: jobkind.Options{Parts: 6, Seed: 3}}
	if err := kind.Normalize(&req); err != nil {
		log.Fatal(err)
	}

	// 3. Solve through the registry: the postman kind Eulerises the grid
	//    (deadheading edges pairing odd intersections, the classic
	//    Chinese-postman repair) and routes the multigraph through the
	//    paper's partition-centric engine.  A nil runner solves
	//    in-process under the given context with the request's engine
	//    options, as a standalone eulerd does.
	var steps []graph.Step
	if err := kind.Solve(context.Background(), req, city, nil, func(st graph.Step) error {
		steps = append(steps, st)
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// 4. Re-verify, as the load harness does for every served result.
	if err := kind.Verify(req, city, steps); err != nil {
		log.Fatal(err)
	}

	deadheads := 0
	for _, st := range steps {
		if st.Edge < 0 { // the sink codec packs "revisit" into the sign
			deadheads++
		}
	}
	depot := steps[0].From
	fmt.Printf("plow tour: %d street traversals (%d deadheading), depot at intersection %d, closed loop ✓\n",
		len(steps), deadheads, depot)
	fmt.Printf("deadheading share of the tour: %.1f%%\n",
		100*float64(deadheads)/float64(len(steps)))

	// 5. Print the first few turns of the route sheet, in the same NDJSON
	//    frames GET /v1/jobs/{id}/circuit streams.
	fmt.Println("\nroute sheet (first 5 wire lines):")
	var buf []byte
	for _, st := range steps[:5] {
		buf = kind.AppendLine(buf[:0], st)
		fmt.Printf("  %s", buf)
	}
}
