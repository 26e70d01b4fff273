package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/sched"
	"repro/internal/service/httpapi"
	"repro/internal/service/job"
)

const (
	// pollEvery is the pause between two status polls of a waiting client.
	pollEvery = time.Millisecond
	// sampleEvery and sampleMost pick the timed jobs verified in full after
	// the window: one job in sampleEvery, by the client's seeded coin, up
	// to sampleMost per client.  Their bodies are kept until then.
	sampleEvery = 20
	sampleMost  = 8
	// retainedJobs is how many finished jobs the server keeps, eulerd's
	// default.
	retainedJobs = 100
	// resultCacheBytes holds every result of one run, so that which
	// submissions hit the cache follows from the mix alone.
	resultCacheBytes = 4 << 30
)

// server is the serving stack under test: the HTTP handler on a loopback
// listener, a fair scheduler with fewer workers than there are clients,
// the result cache and the delta store.
type server struct {
	api   *httpapi.Server
	http  *http.Server
	fair  *sched.Fair
	cache *sched.ResultCache
	url   string
	done  chan error
}

func startServer(dir string, workers int) (*server, error) {
	data := filepath.Join(dir, "data")
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	cache, err := sched.NewResultCache(filepath.Join(dir, "result-cache.log"), resultCacheBytes)
	if err != nil {
		return nil, err
	}
	fair := sched.NewFair(sched.FairConfig{Workers: workers})
	api := httpapi.New(httpapi.Config{
		Store: job.NewStore(retainedJobs),
		Sched: fair, Cache: cache, Deltas: sched.NewDeltaStore(64 << 20), DataDir: data,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		api: api, fair: fair, cache: cache, url: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: api.Handler()}, done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if derr := s.fair.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot is the part of a job's status the client reads.
type snapshot struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Steps    int64      `json:"steps"`
}

func (s snapshot) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "cancelled"
}

// jobRecord is what a client observed of one job.  Client and server run
// in one process and read one clock, so the server's stamps and the
// client's own split the latency into a closed ledger:
// latency = ingest + queue + exec + pollLag + egress.
type jobRecord struct {
	id     string
	job    mixJob
	hit    bool // served from the result cache
	traced bool
	err    error

	latency, submit, ingest, queue, exec, pollLag, egress float64 // ms
	steps, bytes                                          int64
	// body is a copy of the result as read, made only for the jobs sampled
	// for full verification after the window.
	body []byte
}

// client is one closed-loop caller: it submits a job, waits for it, reads
// the whole circuit, and only then submits the next.
type client struct {
	http *http.Client
	url  string
	buf  []byte
}

func (c *client) getSnapshot(path string) (snapshot, error) {
	var snap snapshot
	resp, err := c.http.Get(c.url + path)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// readCircuit streams a finished job's result into the client's reusable
// buffer and returns it.
func (c *client) readCircuit(id string) ([]byte, error) {
	resp, err := c.http.Get(c.url + "/v1/jobs/" + id + "/circuit")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET circuit of %s: status %d", id, resp.StatusCode)
	}
	buf := bytes.NewBuffer(c.buf[:0])
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	c.buf = buf.Bytes()
	want, err := strconv.ParseInt(resp.Header.Get("X-Circuit-Steps"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("circuit of %s: X-Circuit-Steps: %w", id, err)
	}
	if lines := int64(bytes.Count(c.buf, []byte{'\n'})); lines != want {
		return nil, fmt.Errorf("circuit of %s: %d lines, X-Circuit-Steps says %d", id, lines, want)
	}
	return c.buf, nil
}

// do runs one job to its last circuit byte.
func (c *client) do(j mixJob, tr *tracer, op int, keepBody bool) jobRecord {
	rec := jobRecord{job: j, traced: tr != nil}
	t0 := time.Now()
	resp, err := c.http.Post(c.url+"/v1/jobs?"+j.query, j.contentType, bytes.NewReader(j.body))
	if err != nil {
		rec.err = err
		return rec
	}
	var snap snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.err = fmt.Errorf("POST: status %d, %v", resp.StatusCode, err)
		return rec
	}
	t1 := time.Now()
	rec.id, rec.hit = snap.ID, snap.terminal()
	for !snap.terminal() {
		if snap, err = c.getSnapshot("/v1/jobs/" + snap.ID); err != nil {
			rec.err = err
			return rec
		}
		if !snap.terminal() {
			time.Sleep(pollEvery)
		}
	}
	t2 := time.Now()
	if snap.State != "done" || snap.Finished == nil {
		rec.err = fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
		return rec
	}
	body, err := c.readCircuit(snap.ID)
	if err != nil {
		rec.err = err
		return rec
	}
	t3 := time.Now()

	rec.steps, rec.bytes = snap.Steps, int64(len(body))
	if keepBody {
		rec.body = bytes.Clone(body)
	}
	lines := int64(bytes.Count(body, []byte{'\n'}))
	if lines != snap.Steps || (j.steps > 0 && lines != j.steps) || lines < j.minSteps {
		rec.err = fmt.Errorf("job %s: %d result lines, status says %d, the input calls for %d (at least %d)",
			snap.ID, lines, snap.Steps, j.steps, j.minSteps)
	}
	started := snap.Created // a cache hit never starts: it is created finished
	if snap.Started != nil {
		started = *snap.Started
	}
	rec.latency = ms(t3.Sub(t0))
	rec.submit = ms(t1.Sub(t0))
	rec.ingest = ms(snap.Created.Sub(t0))
	rec.queue = ms(started.Sub(snap.Created))
	rec.exec = ms(snap.Finished.Sub(started))
	rec.pollLag = ms(t2.Sub(*snap.Finished))
	rec.egress = ms(t3.Sub(t2))
	if tr != nil {
		root := tr.add("job", 0, op, t0, t3)
		tr.add("POST /v1/jobs", root, op, t0, t1)
		if !rec.hit {
			tr.add("sched.queue", root, op, snap.Created, started)
			tr.add("service.exec", root, op, started, *snap.Finished)
			tr.add("poll-lag", root, op, *snap.Finished, t2)
		}
		tr.add("GET circuit", root, op, t2, t3)
	}
	return rec
}

// parseResult decodes an NDJSON result into steps.
func parseResult(j mixJob, body []byte) ([]graph.Step, error) {
	kind := jobkind.MustGet(j.kind)
	var steps []graph.Step
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'}) {
		st, err := kind.ParseLine(line)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// verifyResult parses an NDJSON result and checks it in full.
func verifyResult(j mixJob, body []byte) error {
	steps, err := parseResult(j, body)
	if err != nil {
		return err
	}
	return j.verify(steps)
}

// runServe runs serve-mixed: P closed-loop clients against the in-process
// server for the configured window, with fewer scheduler workers than
// clients, so that one job is always queued.
func runServe(cfg runConfig) (result, error) {
	clients := runtime.GOMAXPROCS(0)
	var pool []uploadBody
	var srv *server
	setups, err := timeSetups(cfg, func(dir string) (err error) {
		if pool, err = uploadPool(cfg.seed, cfg.sizing); err != nil {
			return err
		}
		srv, err = startServer(dir, max(1, clients/2))
		return err
	}, func() error { return srv.close() })
	if err != nil {
		return result{}, err
	}
	defer srv.close()

	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	// A client reads results into a buffer sized, before the window, for
	// twice the largest result the warm-up saw, so that growing it is not
	// counted among the window's allocations.
	var largest int
	newClient := func() *client {
		return &client{http: &http.Client{Transport: transport}, url: srv.url, buf: make([]byte, 0, 2*largest)}
	}
	var tally tally

	// Warm-up: every upload of the pool plus one job of each other kind,
	// each result parsed and verified in full.  Their seeds belong to a
	// client index the timed clients do not use.
	warm := newMixer(cfg.seed, clients, clients+1, pool, cfg.sizing)
	var warmJobs []mixJob
	for b := range pool {
		warmJobs = append(warmJobs, warm.eulerJob(b, serveModes[b%3], warm.client*1_000_000+int64(b)+1))
	}
	warmJobs = append(warmJobs, warm.postmanJob(warm.client*1_000_000), deBruijnJob(deBruijnSpecs(cfg.sizing)[0]))
	warmClient := newClient()
	var verifyMS []float64
	var midCircuit []graph.Step // of a mid-sized upload, for the step codec
	for i, j := range warmJobs {
		tally.attempted++
		rec := warmClient.do(j, nil, 0, true)
		if rec.err != nil {
			tally.fail("warm-up %s job: %v", j.kind, rec.err)
			continue
		}
		t := time.Now()
		steps, err := parseResult(j, rec.body)
		if err == nil {
			err = j.verify(steps)
		}
		if err != nil {
			tally.fail("warm-up %s job %s: %v", j.kind, rec.id, err)
		}
		verifyMS = append(verifyMS, ms(time.Since(t)))
		largest = max(largest, len(rec.body))
		if i == len(pool)/2 {
			midCircuit = steps
		}
	}

	layers := map[string]float64{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		layers["verify.circuit_ms"] = median(verifyMS)
		if err := measureIngest(pool[len(pool)/2], cfg.workDir, layers); err != nil {
			return result{}, err
		}
		if len(midCircuit) > 0 {
			codec := newLayerSample()
			measureStepCodec(midCircuit, codec)
			codec.mergeInto(layers)
		}
	}
	midCircuit = nil

	// The timed window.
	before := srv.api.MetricsSnapshot()
	debug.FreeOSMemory()
	resetPeakRSS()
	records := make([][]jobRecord, clients)
	wantHits := make([]int64, clients)
	timed := make([]*client, clients)
	for c := range timed {
		timed[c] = newClient()
	}
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mix := newMixer(cfg.seed, c, clients, pool, cfg.sizing)
			cl := timed[c]
			sampler, sampled := rand.New(rand.NewSource(cfg.seed+int64(c))), 0
			for n := 0; time.Since(start) < cfg.window; n++ {
				j, hit := mix.next()
				if hit {
					wantHits[c]++
				}
				// A traced run traces every other job, so traced and
				// untraced jobs see the same server state.
				var jobTracer *tracer
				if cfg.trace && n%2 == 1 {
					jobTracer = tr
				}
				keep := sampled < sampleMost && sampler.Intn(sampleEvery) == 0
				if keep {
					sampled++
				}
				rec := cl.do(j, jobTracer, c*1_000_000+n, keep)
				if rec.err == nil && rec.hit != hit {
					rec.err = fmt.Errorf("job %s: served from cache: %v, the mix calls for %v", rec.id, rec.hit, hit)
				}
				records[c] = append(records[c], rec)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&memAfter)
	var heap heapCost
	heap.add(&memBefore, &memAfter)
	peakMB := peakRSSMB()
	after := srv.api.MetricsSnapshot()

	var ok []jobRecord
	var jobs, wantedHits, steps, egressBytes, keptBytes int64
	for c, rs := range records {
		wantedHits += wantHits[c]
		for _, r := range rs {
			jobs++
			tally.attempted++
			if r.err != nil {
				tally.fail("%s job: %v", r.job.kind, r.err)
				continue
			}
			ok = append(ok, r)
			steps += r.steps
			egressBytes += r.bytes
			keptBytes += int64(len(r.body))
		}
	}
	if len(ok) == 0 {
		return result{}, fmt.Errorf("no job completed")
	}
	// The sampled jobs' results, as read inside the window, must verify
	// in full.
	for _, r := range ok {
		if r.body == nil {
			continue
		}
		tally.attempted++
		if err := verifyResult(r.job, r.body); err != nil {
			tally.fail("%s job %s: %v", r.job.kind, r.id, err)
		}
	}

	col := func(keep func(jobRecord) bool, val func(jobRecord) float64) []float64 {
		var xs []float64
		for _, r := range ok {
			if keep(r) {
				xs = append(xs, val(r))
			}
		}
		return xs
	}
	every := func(jobRecord) bool { return true }
	executed := func(r jobRecord) bool { return !r.hit }
	latency := func(r jobRecord) float64 { return r.latency }
	exec := func(r jobRecord) float64 { return r.exec }
	queue := func(r jobRecord) float64 { return r.queue }

	counter := func(key string) float64 {
		a, _ := after[key].(int64)
		b, _ := before[key].(int64)
		return float64(a - b)
	}
	gotHits := counter("cache_hits")
	if gotHits != float64(wantedHits) {
		tally.fail("the server counted %v cache hits, the mix calls for %d", gotHits, wantedHits)
	}
	if ev := counter("cache_evictions"); ev > 0 {
		fmt.Fprintf(os.Stderr, "result cache evicted %v entries: hits no longer follow from the mix alone\n", ev)
	}
	lag := median(col(executed, func(r jobRecord) float64 { return r.pollLag }))
	if lag > cfg.sizing.maxPollLagMS {
		tally.fail("clients noticed a finished job %.3f ms late at the median (limit %v ms): the harness is measuring its own polling", lag, cfg.sizing.maxPollLagMS)
	}
	if !tailResolved(len(ok), 95) {
		fmt.Fprintf(os.Stderr, "only %d jobs: fewer than ten lie beyond the 95th percentile\n", len(ok))
	}

	if !cfg.trace {
		// Client and server share a heap.  Of what the clients allocate,
		// the copies of sampled results are the harness's alone and come
		// off; the rest is what any caller's HTTP client allocates.
		allocMB := heap.allocMB() - float64(keptBytes)/(1<<20)
		return tally.result(endToEnd, map[string]float64{
			"setup_s":         median(setups),
			"solve_s":         median(col(executed, latency)) / 1000,
			"edges_per_s":     float64(steps) / wall,
			"peak_rss_mb":     peakMB,
			"alloc_mb_per_op": allocMB / float64(jobs),
		}), nil
	}

	layers["service.jobs"] = float64(len(ok))
	layers["service.jobs_per_s"] = float64(len(ok)) / wall
	layers["service.job_latency_p50_ms"] = median(col(every, latency))
	layers["service.job_latency_p95_ms"] = percentile(col(every, latency), 95)
	layers["service.submit_p50_ms"] = median(col(every, func(r jobRecord) float64 { return r.submit }))
	layers["service.ingest_p50_ms"] = median(col(executed, func(r jobRecord) float64 { return r.ingest }))
	layers["sched.queue_wait_p50_ms"] = median(col(executed, queue))
	layers["sched.queue_wait_p95_ms"] = percentile(col(executed, queue), 95)
	layers["service.exec_p50_ms"] = median(col(executed, exec))
	layers["service.exec_p95_ms"] = percentile(col(executed, exec), 95)
	layers["service.poll_lag_p50_ms"] = lag
	egress := col(every, func(r jobRecord) float64 { return r.egress })
	layers["service.egress_p50_ms"] = median(egress)
	layers["service.egress_mb_per_s"] = float64(egressBytes) / (1 << 20) / (sum(egress) / 1000)
	layers["service.egress_bytes_per_step"] = float64(egressBytes) / float64(steps)
	layers["service.hit_latency_p50_ms"] = median(col(func(r jobRecord) bool { return r.hit }, latency))
	layers["service.miss_latency_p50_ms"] = median(col(executed, latency))
	for _, kind := range []string{"euler", "postman", "debruijn"} {
		layers["jobkind."+kind+"_exec_p50_ms"] = median(col(func(r jobRecord) bool { return !r.hit && r.job.kind == kind }, exec))
	}
	layers["sched.cache_hit_ratio"] = gotHits / float64(jobs)
	layers["sched.coalesced_jobs"] = counter("coalesced_jobs")
	untraced := median(col(func(r jobRecord) bool { return !r.hit && !r.traced }, latency))
	traced := median(col(func(r jobRecord) bool { return !r.hit && r.traced }, latency))
	if untraced > 0 {
		layers["trace_overhead_pct"] = 100 * (traced - untraced) / untraced
	}
	heap.gcLayers(layers)
	if err := tr.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
		return result{}, err
	}
	return tally.result(perLayer, layers), nil
}

// measureIngest times, on one upload, the two calls the server makes on
// every upload before it can queue the job.
func measureIngest(body uploadBody, dir string, layers map[string]float64) error {
	path := filepath.Join(dir, "upload.bin")
	if err := os.WriteFile(path, body.data, 0o644); err != nil {
		return err
	}
	var read, fingerprint []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		g, err := graph.ReadFile(path)
		if err != nil {
			return err
		}
		read = append(read, ms(time.Since(t)))
		t = time.Now()
		sched.FingerprintGraph(g, sched.SolveOptions{Parts: serveParts, Mode: "current", Seed: 1, Kind: "euler"})
		fingerprint = append(fingerprint, ms(time.Since(t)))
	}
	layers["graph.read_ms"] = median(read)
	layers["sched.fingerprint_ms"] = median(fingerprint)
	return nil
}
