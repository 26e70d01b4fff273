package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/seq"
	"repro/internal/verify"
)

// setupsPerRun is how often a run sets its workload up; setup_s is the
// median.  The benchmark's contract asks for several set-ups in a run, since
// a later change is rejected when the median setup_s of ten runs gets worse
// by more than its bound.
const setupsPerRun = 9

// minOps is the fewest timed operations a run reports on, however short
// its window.
const minOps = 5

// libWorkload is one of the five workloads that call the solver as a
// library.  An operation is one complete solve through the public facade.
type libWorkload interface {
	// setup generates the inputs from the seed and starts whatever the
	// workload talks to; its wall time is setup_s.  dir is the workload's
	// own scratch directory.
	setup(seed int64, sz sizing, dir string) error
	close() error
	// graph returns the in-memory graph the next operation's output must
	// be an Euler circuit of.
	graph() *graph.Graph
	// prepare does the untimed work that precedes an operation.
	prepare() error
	// op runs one operation, streaming the circuit into emit.
	op(emit func(graph.Step) error) error
	// tracedOp does the work of op as the equivalent sequence of public
	// calls, each timed from here and recorded as a span of operation
	// opID, and notes what the calls returned in sample.
	tracedOp(tr *tracer, opID int, emit func(graph.Step) error, sample *layerSample) error
	// stable reports whether every operation emits the same circuit.
	stable() bool
	// crossCheck solves the input of the operation that just ran through
	// another path of the program and compares checksums.
	crossCheck(sum uint64) error
	// once takes the layer measurements a traced run makes a single time,
	// before its timed operations.
	once(sample *layerSample) error
}

// layerSample is what one traced operation observed: times vary from
// operation to operation and are reported as medians, counts are taken
// from the first traced operation so that they repeat exactly for a seed.
type layerSample struct {
	times  map[string]float64
	counts map[string]float64
	// ledger is the summed time of the operation's individually timed
	// layers — partition.LDG, Report.Wall, Registry.Unroll and whatever
	// else the workload calls itself — without plan building, which a run
	// does inside and once() times separately.  What solve_s holds beyond
	// ledger and plan is euler.unaccounted_pct: time no layer metric shows.
	ledger time.Duration
}

func newLayerSample() *layerSample {
	return &layerSample{times: map[string]float64{}, counts: map[string]float64{}}
}

func (s *layerSample) mergeInto(layers map[string]float64) {
	for k, v := range s.times {
		layers[k] = v
	}
	for k, v := range s.counts {
		layers[k] = v
	}
}

// checkSink is the counting sink of the timed operations: it checks that
// the emitted steps chain into one closed walk, counts them, and keeps a
// rolling checksum to compare with the verified warm-up circuit.
type checkSink struct {
	n           int64
	sum         uint64
	first, prev graph.VertexID
	broken      bool
}

func (c *checkSink) emit(s graph.Step) error {
	if c.n == 0 {
		c.first = s.From
	} else if s.From != c.prev {
		c.broken = true
	}
	c.prev = s.To
	c.n++
	const prime = 1099511628211
	c.sum = (c.sum ^ uint64(s.Edge)) * prime
	c.sum = (c.sum ^ uint64(s.From)) * prime
	c.sum = (c.sum ^ uint64(s.To)) * prime
	return nil
}

// closedWalkOf reports whether the sink saw a closed walk of want steps.
func (c *checkSink) closedWalkOf(want int64) bool {
	return !c.broken && c.n == want && c.first == c.prev
}

// runLibrary runs one library workload for the configured window and
// returns the metrics of the requested kind.
func runLibrary(w libWorkload, cfg runConfig) (result, error) {
	setups, err := timeSetups(cfg, func(dir string) error { return w.setup(cfg.seed, cfg.sizing, dir) }, w.close)
	if err != nil {
		return result{}, err
	}
	defer w.close()

	var tally tally

	// Warm-up: one untimed operation whose circuit is collected, verified
	// in full and checked against another path of the program.
	if err := w.prepare(); err != nil {
		return result{}, err
	}
	var steps []graph.Step
	var warm checkSink
	err = w.op(func(s graph.Step) error {
		steps = append(steps, s)
		return warm.emit(s)
	})
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	tally.attempted++
	t := time.Now()
	if err := verify.Circuit(w.graph(), steps); err != nil {
		tally.fail("warm-up circuit: %v", err)
	}
	verifyMS := ms(time.Since(t))
	if err := w.crossCheck(warm.sum); err != nil {
		tally.fail("warm-up cross-path check: %v", err)
	}

	once := newLayerSample()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		once.times["verify.circuit_ms"] = verifyMS
		if err := measureOnce(w, steps, once); err != nil {
			return result{}, err
		}
	}
	steps = nil

	// Timed operations.  Memory statistics are read around each operation,
	// so that what prepare() and the forced collection between operations
	// allocate is the harness's, not the program's.
	var durs, tracedDurs, ledgers []float64
	var samples []*layerSample
	var stepsTotal int64
	var last checkSink
	var heap heapCost
	timedOp := func(run func(*checkSink) error) (float64, error) {
		if err := w.prepare(); err != nil {
			return 0, err
		}
		// Every operation starts from a collected heap, so that none pays
		// for its predecessor's garbage.
		runtime.GC()
		var sink checkSink
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		err := run(&sink)
		d := time.Since(t).Seconds()
		runtime.ReadMemStats(&after)
		heap.add(&before, &after)
		tally.attempted++
		switch {
		case err != nil:
			tally.fail("operation: %v", err)
		case !sink.closedWalkOf(w.graph().NumEdges()):
			tally.fail("operation emitted %d steps that are not a closed walk of %d edges", sink.n, w.graph().NumEdges())
		case w.stable() && sink.sum != warm.sum:
			tally.fail("operation's circuit differs from the verified warm-up circuit")
		}
		stepsTotal += sink.n
		last = sink
		return d, nil
	}

	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	untracedOp := func() error {
		d, err := timedOp(func(sink *checkSink) error { return w.op(sink.emit) })
		durs = append(durs, d)
		return err
	}
	tracedOp := func() error {
		sample := newLayerSample()
		d, err := timedOp(func(sink *checkSink) error {
			return w.tracedOp(tr, len(samples)+1, sink.emit, sample)
		})
		tracedDurs = append(tracedDurs, d)
		ledgers = append(ledgers, sample.ledger.Seconds())
		samples = append(samples, sample)
		return err
	}
	for len(durs) < minOps || time.Since(start) < cfg.window {
		pair := []func() error{untracedOp}
		if cfg.trace {
			// Traced and untraced operations alternate, and so does
			// which of the two goes first.
			pair = append(pair, tracedOp)
			if len(durs)%2 == 1 {
				pair[0], pair[1] = pair[1], pair[0]
			}
		}
		for _, op := range pair {
			if err := op(); err != nil {
				return result{}, err
			}
		}
	}
	peakMB := peakRSSMB()
	if !w.stable() {
		if err := w.crossCheck(last.sum); err != nil {
			tally.fail("last operation's cross-path check: %v", err)
		}
	}

	solve := median(durs)
	if !cfg.trace {
		return tally.result(endToEnd, map[string]float64{
			"setup_s":         median(setups),
			"solve_s":         solve,
			"edges_per_s":     float64(stepsTotal) / sum(durs),
			"peak_rss_mb":     peakMB,
			"alloc_mb_per_op": heap.allocMB() / float64(len(durs)),
		}), nil
	}

	layers := map[string]float64{}
	once.mergeInto(layers)
	for k, v := range samples[0].counts {
		layers[k] = v
	}
	for k := range samples[0].times {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s.times[k])
		}
		layers[k] = median(xs)
	}
	// The two comparisons between traced and untraced operations are made
	// on totals, that is on means: operations differ by some 5 % among
	// themselves, a run has as few as five pairs of them, and the mean of so
	// few resolves a difference of a few percent where the median does not.
	untraced := sum(durs)
	accounted := sum(ledgers) + float64(len(ledgers))*layers["euler.plan_ms"]/1000
	layers["euler.unaccounted_pct"] = 100 * (untraced - accounted) / untraced
	layers["trace_overhead_pct"] = 100 * (sum(tracedDurs) - untraced) / untraced
	layers["seq.speedup"] = layers["seq.hierholzer_ms"] / (1000 * solve)
	if base := layers["cluster.inprocess_solve_ms"]; base > 0 {
		layers["cluster.overhead_ratio"] = 1000 * solve / base
	}
	if scratch := layers["euler.scratch_solve_ms"]; scratch > 0 {
		layers["euler.delta_exec_ratio"] = 1000 * solve / scratch
	}
	heap.gcLayers(layers)
	if err := tr.write(filepath.Join(cfg.outDir, cfg.workload+".trace.json")); err != nil {
		return result{}, err
	}
	return tally.result(perLayer, layers), nil
}

// timeSetups sets a workload up setupsPerRun times, each time in a scratch
// directory of its own and after closing the previous set-up, and returns
// the wall times in seconds; the last set-up is left open for the run.
func timeSetups(cfg runConfig, setup func(dir string) error, closePrev func() error) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupsPerRun; i++ {
		if i > 0 {
			if err := closePrev(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
		}
		dir := filepath.Join(cfg.workDir, "setup"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := setup(dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	return setups, nil
}

// tally counts operations attempted and failed; a failure is an error, a
// circuit that does not verify, or a checksum that does not match.
type tally struct{ attempted, failed int64 }

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
}

func (t *tally) result(defs []metricDef, values map[string]float64) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: withUnits(defs, values)}
}

// heapCost adds up what the timed operations allocated and what the
// collector did meanwhile, between pairs of memory-statistics readings.
type heapCost struct {
	allocBytes, pauseNs uint64
	numGC               uint32
}

func (c *heapCost) add(before, after *runtime.MemStats) {
	c.allocBytes += after.TotalAlloc - before.TotalAlloc
	c.pauseNs += after.PauseTotalNs - before.PauseTotalNs
	c.numGC += after.NumGC - before.NumGC
}

func (c *heapCost) allocMB() float64 { return float64(c.allocBytes) / (1 << 20) }

func (c *heapCost) gcLayers(layers map[string]float64) {
	layers["proc.num_gc"] = float64(c.numGC)
	layers["proc.gc_pause_total_ms"] = float64(c.pauseNs) / 1e6
}

// measureOnce takes the layer measurements that need the warm-up circuit
// or the whole input, once per traced run.
func measureOnce(w libWorkload, steps []graph.Step, once *layerSample) error {
	t := time.Now()
	if _, err := seq.Hierholzer(w.graph(), steps[0].From); err != nil {
		return fmt.Errorf("sequential baseline: %w", err)
	}
	once.times["seq.hierholzer_ms"] = ms(time.Since(t))
	measureStepCodec(steps, once)
	return w.once(once)
}

// measureStepCodec times the binary step codec over a circuit, in the
// 4096-step batches the serving layer's sink uses.
func measureStepCodec(steps []graph.Step, once *layerSample) {
	const batch = 4096
	var frames [][]byte
	t := time.Now()
	for i := 0; i < len(steps); i += batch {
		frames = append(frames, graph.AppendSteps(nil, steps[i:min(i+batch, len(steps))]))
	}
	once.times["graph.encode_steps_ms"] = ms(time.Since(t))
	var bytes int
	t = time.Now()
	for _, f := range frames {
		bytes += len(f)
		if _, err := graph.DecodeSteps(f); err != nil {
			panic(fmt.Sprintf("decoding a frame AppendSteps just produced: %v", err))
		}
	}
	once.times["graph.decode_steps_ms"] = ms(time.Since(t))
	once.counts["graph.bytes_per_step"] = float64(bytes) / float64(len(steps))
}

// reportLayers notes the euler and bsp layer metrics a run report carries.
func reportLayers(rep *euler.RunReport, sample *layerSample) {
	var phase1, copySrc, copySink, createObj, merge time.Duration
	var level0 []float64
	for _, p := range rep.Parts {
		phase1 += p.Phase1
		copySrc += p.CopySrc
		copySink += p.CopySink
		createObj += p.CreateObj
		if p.Level == 0 {
			level0 = append(level0, ms(p.Phase1))
		} else {
			merge += p.CopySrc + p.CreateObj
		}
	}
	sample.times["euler.bsp_wall_ms"] = ms(rep.Wall)
	sample.times["euler.phase1_ms"] = ms(phase1)
	sample.times["euler.copy_src_ms"] = ms(copySrc)
	sample.times["euler.copy_sink_ms"] = ms(copySink)
	sample.times["euler.create_obj_ms"] = ms(createObj)
	sample.times["euler.merge_ms"] = ms(merge)
	if m := median(level0); m > 0 {
		sort.Float64s(level0)
		sample.times["euler.phase1_skew"] = level0[len(level0)-1] / m
	}
	var peak int64
	for _, l := range rep.Levels {
		peak = max(peak, l.CumulativeLongs)
	}
	sample.counts["euler.state_longs_peak"] = float64(peak)
	sample.counts["bsp.supersteps"] = float64(rep.BSP.Supersteps)
	sample.counts["bsp.messages"] = float64(rep.BSP.Messages)
	sample.counts["bsp.bytes"] = float64(rep.BSP.Bytes)
	sample.times["bsp.critical_path_ms"] = ms(rep.BSP.CriticalPath)
	sample.times["bsp.barrier_ms"] = ms(rep.Wall - rep.BSP.CriticalPath)
	sample.times["bsp.wire_ms"] = ms(rep.BSP.WireTotal)
	sample.counts["bsp.wire_bytes"] = float64(rep.WireBytes)
}

// runSpans records the span of one engine run and the child spans the
// benchmark reconstructs from what the run returned: plan building (timed
// by a separate call to euler.BuildPlan, since a run builds its plan
// inside), the BSP supersteps, and within them one span per level as long
// as that level's slowest worker computed, followed by the level's time on
// the wire when the run crossed one.
func runSpans(tr *tracer, name string, parent, opID int, start, end time.Time, plan time.Duration, rep *euler.RunReport) {
	run := tr.add(name, parent, opID, start, end)
	bspStart := start.Add(plan)
	tr.add("euler.BuildPlan", run, opID, start, bspStart)
	bsp := tr.add("bsp.supersteps", run, opID, bspStart, bspStart.Add(rep.Wall))
	at := bspStart
	for _, st := range rep.BSP.Stages {
		tr.add("level-"+strconv.Itoa(st.Superstep), bsp, opID, at, at.Add(st.MaxCompute))
		at = at.Add(st.MaxCompute)
		if st.Wire > 0 {
			tr.add("bsp.wire-"+strconv.Itoa(st.Superstep), bsp, opID, at, at.Add(st.Wire))
			at = at.Add(st.Wire)
		}
	}
}

// resetPeakRSS makes the kernel restart the process's peak-RSS mark at the
// current RSS, so that peak_rss_mb covers the timed operations and not
// input generation or warm-up verification.  Where the kernel refuses,
// the peak covers the whole run.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "peak RSS not reset, it covers set-up too: %v\n", err)
	}
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}
