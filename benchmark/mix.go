package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobkind"
)

// The serve-mixed traffic mix.  One submission in four repeats an earlier
// body of the same client (a result-cache hit); of ten fresh submissions
// eight are euler uploads, one is a postman job and one a debruijn job.
// The mixer deals these from shuffled decks, so that every seed does the
// same work in a different order.
const (
	repeatEvery  = 4
	freshBlock   = 10
	eulerInBlock = 8
	recentJobs   = 16 // how far back a repeat reaches
	serveParts   = 4
)

// deck deals the numbers 0..n-1 in seeded random order, then reshuffles.
type deck struct {
	n    int
	left []int
}

func (d *deck) draw(rng *rand.Rand) int {
	if len(d.left) == 0 {
		d.left = rng.Perm(d.n)
	}
	card := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return card
}

var serveModes = []string{"current", "dedup", "proposed"}

// uploadBody is one generated graph of the upload pool and its EULGRPH1
// encoding.
type uploadBody struct {
	g    *graph.Graph
	data []byte
}

// uploadPool generates the graphs euler jobs upload: torus, RMAT and ring
// of cliques, each at four edge counts spread evenly over the sizing's
// range.  The sizes are the same for every seed, so that runs with
// different seeds do the same amount of work; the seed picks the RMAT
// graphs (and, in the mixer, which body each job uploads).
func uploadPool(seed int64, sz sizing) ([]uploadBody, error) {
	var pool []uploadBody
	for i := int64(0); i < 12; i++ {
		edges := sz.serveMinEdges + (sz.serveMaxEdges-sz.serveMinEdges)*(i/3)/3
		var g *graph.Graph
		switch i % 3 {
		case 0:
			side := int64(math.Sqrt(float64(edges) / 2))
			g = gen.Torus(side, side)
		case 1:
			// About 2.6 edges survive per RMAT vertex at average degree 5.
			g = rmatGraph(edges*10/26, seed+i)
		case 2:
			g = gen.RingOfCliques(edges/(cliqueSize*(cliqueSize-1)/2), cliqueSize)
		}
		var buf bytes.Buffer
		if err := graph.Write(&buf, g); err != nil {
			return nil, err
		}
		pool = append(pool, uploadBody{g: g, data: buf.Bytes()})
	}
	return pool, nil
}

// deBruijnSpecs lists every B(k, n) the service accepts whose length
// falls in the sizing's range.
func deBruijnSpecs(sz sizing) []jobkind.DeBruijnSpec {
	var specs []jobkind.DeBruijnSpec
	for k := int64(2); k <= 10; k++ {
		size := k
		for n := int64(1); size <= sz.serveMaxEdges; n++ {
			if size >= sz.serveMinEdges {
				specs = append(specs, jobkind.DeBruijnSpec{Alphabet: k, Length: n})
			}
			size *= k
		}
	}
	return specs
}

// mixJob is one submission of the mix.
type mixJob struct {
	kind        string
	query       string // uploads: the engine options, as a query string
	body        []byte // uploads: EULGRPH1 bytes; otherwise a JSON spec
	contentType string
	// key identifies what the result cache keys on: a job whose key this
	// client submitted before must be served from the cache.
	key string
	// steps is the exact length of the result, 0 when only minSteps is
	// known before solving (a covering tour revisits edges).
	steps, minSteps int64
	// verify checks a decoded result in full.
	verify func(steps []graph.Step) error
}

// mixer draws one client's endless, seeded sequence of submissions.
type mixer struct {
	rng      *rand.Rand
	client   int64
	n        int64
	pool     []uploadBody
	deBruijn []jobkind.DeBruijnSpec // this client's share of the specs
	sz       sizing
	recent   []mixJob
	seen     map[string]bool

	repeats, kinds, bodies, specs deck
}

func newMixer(seed int64, client, clients int, pool []uploadBody, sz sizing) *mixer {
	m := &mixer{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		client: int64(client), pool: pool, sz: sz, seen: map[string]bool{},
		repeats: deck{n: repeatEvery}, kinds: deck{n: freshBlock}, bodies: deck{n: len(pool)},
	}
	// de Bruijn jobs take no engine options, so two clients drawing the
	// same B(k, n) would race for the cache; each client draws from its
	// own.  The first spec is the warm-up's.
	for i, spec := range deBruijnSpecs(sz)[1:] {
		if i%clients == client {
			m.deBruijn = append(m.deBruijn, spec)
		}
	}
	m.specs = deck{n: len(m.deBruijn)}
	return m
}

// next returns the client's next submission and whether the result cache
// must already hold its result.
func (m *mixer) next() (mixJob, bool) {
	var j mixJob
	if m.repeats.draw(m.rng) == 0 && len(m.recent) > 0 {
		j = m.recent[m.rng.Intn(len(m.recent))]
	} else {
		j = m.fresh()
		m.recent = append(m.recent, j)
		if len(m.recent) > recentJobs {
			m.recent = m.recent[1:]
		}
	}
	hit := m.seen[j.key]
	m.seen[j.key] = true
	return j, hit
}

func (m *mixer) fresh() mixJob {
	// The partitioner seed is part of a job's cache key, so a seed no other
	// submission uses makes the job distinct.
	m.n++
	jobSeed := m.client*1_000_000 + m.n
	switch card := m.kinds.draw(m.rng); {
	case card < eulerInBlock || (card > eulerInBlock && len(m.deBruijn) == 0):
		return m.eulerJob(m.bodies.draw(m.rng), serveModes[m.n%3], jobSeed)
	case card == eulerInBlock:
		return m.postmanJob(jobSeed)
	default:
		return deBruijnJob(m.deBruijn[m.specs.draw(m.rng)])
	}
}

func (m *mixer) eulerJob(b int, mode string, jobSeed int64) mixJob {
	g := m.pool[b].g
	query := fmt.Sprintf("parts=%d&mode=%s&seed=%d", serveParts, mode, jobSeed)
	return mixJob{
		kind: "euler", query: query, body: m.pool[b].data, contentType: "application/octet-stream",
		key: fmt.Sprintf("euler/%d/%s", b, query), steps: g.NumEdges(),
		verify: func(steps []graph.Step) error {
			return jobkind.MustGet("euler").Verify(jobkind.Request{}, g, steps)
		},
	}
}

// postmanJob asks for a covering tour of a generated street grid about as
// large as the smallest upload.
func (m *mixer) postmanJob(jobSeed int64) mixJob {
	side := int64(math.Sqrt(float64(m.sz.serveMinEdges) / 2))
	spec := fmt.Sprintf(`{"kind":"postman","generator":{"family":"grid","width":%d,"height":%d,"closures":0.1,"seed":%d},"parts":%d,"seed":%d}`,
		side, side, jobSeed, serveParts, jobSeed)
	return mixJob{
		kind: "postman", body: []byte(spec), contentType: "application/json", key: spec,
		minSteps: side * side,
		verify: func(steps []graph.Step) error {
			g := gen.StreetGrid(side, side, 0.1, jobSeed)
			return jobkind.MustGet("postman").Verify(jobkind.Request{}, g, steps)
		},
	}
}

func deBruijnJob(d jobkind.DeBruijnSpec) mixJob {
	spec := fmt.Sprintf(`{"kind":"debruijn","debruijn":{"alphabet":%d,"length":%d}}`, d.Alphabet, d.Length)
	size := int64(math.Round(math.Pow(float64(d.Alphabet), float64(d.Length))))
	return mixJob{
		kind: "debruijn", body: []byte(spec), contentType: "application/json", key: spec, steps: size,
		verify: func(steps []graph.Step) error {
			return jobkind.MustGet("debruijn").Verify(jobkind.Request{DeBruijn: &d}, nil, steps)
		},
	}
}
