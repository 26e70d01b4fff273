// Package load is the scenario-driven load/soak harness for eulerd: a
// declarative registry of traffic scenarios (mixed generator families
// and engine modes, open- and closed-loop arrival, uploads, streaming
// consumers that abort mid-read, delete-while-running, cluster
// topologies including kill-one-worker chaos) and a runner that drives a
// real eulerd process over HTTP, verifies every returned circuit, and
// records throughput, latency quantiles, and error budgets into the
// shared bench.BenchReport schema.  cmd/eulerload is the CLI; the CI
// perf gate diffs its reports against the checked-in BENCH_4.json.
package load

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/jobkind"
	"repro/internal/service/job"
)

// Behavior is what the synthetic client does with each job it submits.
type Behavior int

// Client behaviors.
const (
	// BehaviorComplete waits for the job, streams the full circuit, and
	// verifies it against a locally built copy of the input graph.
	BehaviorComplete Behavior = iota
	// BehaviorCancelMidStream additionally starts a circuit read that
	// aborts after a few steps (a consumer going away mid-stream) before
	// the full verified read.
	BehaviorCancelMidStream
	// BehaviorDeleteWhileRunning cancels the job once it is observed
	// running; the job must end cancelled (or done, if it won the race).
	BehaviorDeleteWhileRunning
)

// Topology is the server shape a scenario runs against.
type Topology int

// Topologies.
const (
	// TopoStandalone is a single eulerd process.
	TopoStandalone Topology = iota
	// TopoCluster is a coordinator plus Workers worker processes.
	TopoCluster
)

// JobTemplate describes one kind of job a scenario submits.  Graph-
// backed kinds always carry a generator so the harness can rebuild the
// identical input graph locally for verification; graphless kinds
// (debruijn, superwalk) carry their kind spec instead and are verified
// straight from it.  Upload switches the transport to an EULGRPH1 body
// POST (the generator runs client-side instead).
type JobTemplate struct {
	Spec   job.Spec
	Upload bool
	// Tenant/Class ride as X-Tenant/X-Class submission headers.
	Tenant string
	Class  string
	// MayThrottle marks templates whose submissions the server is
	// allowed (even expected) to reject with 429: a throttled
	// submission counts as throttled, not failed — but it must carry a
	// Retry-After hint, and a 429 on a template without MayThrottle
	// fails the scenario.
	MayThrottle bool
}

// Scenario is one declarative load scenario.  Jobs are assigned to
// templates round-robin.
type Scenario struct {
	Name        string
	Description string
	// Profiles name the run profiles this scenario belongs to ("ci" is
	// the CI smoke + perf gate; "soak" is the nightly superset).
	Profiles []string

	Topology Topology
	// Workers, MinNodes, WorkerCapacity shape a TopoCluster run.
	Workers        int
	MinNodes       int
	WorkerCapacity int
	// ServerArgs are extra eulerd flags for the HTTP-serving process
	// (e.g. a deliberately small -workers for backpressure scenarios).
	ServerArgs []string
	// ServerEnv is extra environment for the HTTP-serving process only
	// ("KEY=value" entries, e.g. GOMEMLIMIT for out-of-core scenarios);
	// workers and the CompareSolo reference server run unconstrained.
	ServerEnv []string
	// MaxRSSMB caps the serving process's peak resident set (VmHWM from
	// /proc, so Linux-only; elsewhere the probe is skipped).  0 disables
	// the ceiling; the probed value is always recorded as
	// server_peak_rss_mb when available.
	MaxRSSMB int

	// Jobs is the total job count (scaled by the profile multiplier).
	Jobs int
	// Concurrency > 0 selects closed-loop arrival with that many
	// in-flight jobs; otherwise RatePerSec selects open-loop arrival.
	Concurrency int
	RatePerSec  float64

	Templates []JobTemplate
	Behavior  Behavior

	// ChaosKillWorker kills one worker process once roughly a third of
	// the jobs have finished; requires TopoCluster and Workers >= 2.
	ChaosKillWorker bool
	// WorkerFaults arms faultpoint specs on the workers, by index: entry
	// i is passed to worker i as -faultpoints (empty entries arm
	// nothing).  Requires TopoCluster; see internal/faultpoint for the
	// grammar.
	WorkerFaults []string
	// ExpectRetry asserts the coordinator's fault-tolerance counters
	// after the run: at least one job must have been retried and at
	// least one re-plan must have happened (the chaos actually bit and
	// the recovery path actually ran).
	ExpectRetry bool
	// ExpectDegraded asserts the coordinator fell back to degraded
	// local execution at least once and that some job snapshot carries
	// the degraded flag.
	ExpectDegraded bool
	// CompareSolo replays every job on a standalone reference server
	// and requires byte-identical circuit streams (the old
	// cluster_smoke.sh check).
	CompareSolo bool

	// DeltaStorm switches the scenario to the delta-submission flow:
	// one full solve of the single template establishes a retained base
	// fingerprint, then every job submits an edge diff against it.  Each
	// delta must carry the delta flag with reused_parts > 0, verify
	// against the locally patched graph, be the cache hit a full upload
	// of that graph gets on the same server, and (with CompareSolo,
	// which DeltaStorm requires) stream byte-identically to a
	// from-scratch solve of the same patched graph on the reference
	// server.
	DeltaStorm bool
	// DeltaMaxExecRatio is a hard ceiling on delta exec p95 divided by
	// from-scratch exec p95 — the incremental recompute must actually be
	// cheaper than solving the patched graph from zero.  0 disables the
	// ceiling (the banded delta_vs_full_exec_p95 metric still records
	// it).  Only meaningful with DeltaStorm.
	DeltaMaxExecRatio float64

	// ErrorBudget is the tolerated fraction of jobs that may end failed
	// (chaos scenarios budget for the jobs the killed worker takes
	// down); exceeding it fails the run regardless of any baseline.
	ErrorBudget float64

	// ExpectDedup asserts the dedup-storm contract after the run: the
	// server's jobs_started counter must be exactly 1 and every other
	// submission must be a cache hit or a coalesced duplicate.
	ExpectDedup bool
	// DedupKind additionally pins the dedup assertion to one workload
	// kind: the server's per-kind kinds.<DedupKind>.started counter must
	// also be exactly 1.  Only meaningful with ExpectDedup.
	DedupKind string
	// ExpectThrottle asserts that at least one MayThrottle submission
	// was rejected with 429 — the admission-control path actually
	// fired.
	ExpectThrottle bool

	// JobTimeout bounds one job's submit-to-terminal wait (default 120s).
	JobTimeout time.Duration
}

// OpenLoop reports whether the scenario uses open-loop (timed) arrivals.
func (s Scenario) OpenLoop() bool { return s.Concurrency <= 0 && s.RatePerSec > 0 }

// InProfile reports whether the scenario belongs to the named profile.
func (s Scenario) InProfile(profile string) bool {
	for _, p := range s.Profiles {
		if p == profile {
			return true
		}
	}
	return false
}

// Validate checks the scenario's declaration, including that every job
// template is a spec the service would accept.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("load: scenario without a name")
	}
	if s.Jobs < 1 {
		return fmt.Errorf("load: scenario %s has no jobs", s.Name)
	}
	if len(s.Templates) == 0 {
		return fmt.Errorf("load: scenario %s has no job templates", s.Name)
	}
	if s.Concurrency <= 0 && s.RatePerSec <= 0 {
		return fmt.Errorf("load: scenario %s declares neither closed-loop concurrency nor open-loop rate", s.Name)
	}
	if s.Concurrency > 0 && s.RatePerSec > 0 {
		return fmt.Errorf("load: scenario %s declares both closed-loop concurrency and open-loop rate; pick one arrival discipline", s.Name)
	}
	if len(s.Profiles) == 0 {
		return fmt.Errorf("load: scenario %s belongs to no profile", s.Name)
	}
	if s.MaxRSSMB < 0 {
		return fmt.Errorf("load: scenario %s has a negative RSS ceiling", s.Name)
	}
	for _, e := range s.ServerEnv {
		if !strings.Contains(e, "=") {
			return fmt.Errorf("load: scenario %s server env entry %q is not KEY=value", s.Name, e)
		}
	}
	if s.ChaosKillWorker && (s.Topology != TopoCluster || s.Workers < 2) {
		return fmt.Errorf("load: chaos scenario %s needs a cluster with >= 2 workers", s.Name)
	}
	if s.Topology == TopoCluster && s.Workers < 1 {
		return fmt.Errorf("load: cluster scenario %s declares no workers", s.Name)
	}
	if len(s.WorkerFaults) > 0 && s.Topology != TopoCluster {
		return fmt.Errorf("load: scenario %s arms worker faultpoints without a cluster topology", s.Name)
	}
	if len(s.WorkerFaults) > s.Workers {
		return fmt.Errorf("load: scenario %s arms faults for %d workers but spawns %d", s.Name, len(s.WorkerFaults), s.Workers)
	}
	if (s.ExpectRetry || s.ExpectDegraded) && s.Topology != TopoCluster {
		return fmt.Errorf("load: scenario %s asserts cluster fault-tolerance counters without a cluster topology", s.Name)
	}
	for i, tpl := range s.Templates {
		// Validate a deep copy: Spec.Validate writes defaults through the
		// kind-spec pointers, and the caller's template must stay as
		// declared.
		spec := tpl.Spec.Clone()
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("load: scenario %s template %d: %w", s.Name, i, err)
		}
		if jobkind.MustGet(spec.Kind).NeedsGraph() {
			if tpl.Spec.Generator == nil {
				return fmt.Errorf("load: scenario %s template %d has no generator (the harness rebuilds inputs locally to verify)", s.Name, i)
			}
		} else if tpl.Upload {
			return fmt.Errorf("load: scenario %s template %d uploads a graph for graphless kind %s", s.Name, i, spec.Kind)
		}
		switch tpl.Class {
		case "", "batch", "interactive":
		default:
			return fmt.Errorf("load: scenario %s template %d: unknown class %q", s.Name, i, tpl.Class)
		}
	}
	if s.ExpectThrottle {
		any := false
		for _, tpl := range s.Templates {
			any = any || tpl.MayThrottle
		}
		if !any {
			return fmt.Errorf("load: scenario %s expects throttling but no template may throttle", s.Name)
		}
	}
	if s.DeltaStorm {
		if s.Topology != TopoStandalone {
			return fmt.Errorf("load: delta scenario %s needs a standalone topology (cluster runs retain no delta state)", s.Name)
		}
		if len(s.Templates) != 1 {
			return fmt.Errorf("load: delta scenario %s needs exactly one base template, has %d", s.Name, len(s.Templates))
		}
		tpl := s.Templates[0]
		if tpl.Upload {
			return fmt.Errorf("load: delta scenario %s must submit its base as a spec, not an upload", s.Name)
		}
		spec := tpl.Spec.Clone()
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("load: delta scenario %s base spec: %w", s.Name, err)
		}
		if k := jobkind.MustGet(spec.Kind); !jobkind.SupportsDelta(k) {
			return fmt.Errorf("load: delta scenario %s uses kind %s, which does not accept diffs", s.Name, spec.Kind)
		}
		if s.Behavior != BehaviorComplete {
			return fmt.Errorf("load: delta scenario %s only supports the complete behavior", s.Name)
		}
		if !s.CompareSolo {
			return fmt.Errorf("load: delta scenario %s must set CompareSolo — byte-identity against a from-scratch solve is the point", s.Name)
		}
	}
	if s.DeltaMaxExecRatio < 0 {
		return fmt.Errorf("load: scenario %s has a negative delta exec ratio ceiling", s.Name)
	}
	if s.DeltaMaxExecRatio > 0 && !s.DeltaStorm {
		return fmt.Errorf("load: scenario %s sets DeltaMaxExecRatio without DeltaStorm", s.Name)
	}
	if s.ErrorBudget < 0 || s.ErrorBudget > 1 {
		return fmt.Errorf("load: scenario %s error budget %v outside [0, 1]", s.Name, s.ErrorBudget)
	}
	if s.DedupKind != "" {
		if !s.ExpectDedup {
			return fmt.Errorf("load: scenario %s sets DedupKind without ExpectDedup", s.Name)
		}
		if _, err := jobkind.Get(s.DedupKind); err != nil {
			return fmt.Errorf("load: scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// gen builds a generator template for the given family parameters.
func genTpl(spec job.Spec) JobTemplate    { return JobTemplate{Spec: spec} }
func uploadTpl(spec job.Spec) JobTemplate { return JobTemplate{Spec: spec, Upload: true} }

func cliques(k, c int64, parts int32, mode string) job.Spec {
	return job.Spec{Generator: &job.GenSpec{Family: "cliques", K: k, C: c}, Parts: parts, Mode: mode, Seed: 7}
}

func rmat(vertices int64, degree int, parts int32, mode string) job.Spec {
	return job.Spec{Generator: &job.GenSpec{Family: "rmat", Vertices: vertices, Degree: degree, Seed: 42}, Parts: parts, Mode: mode, Seed: 7}
}

func torus(w, h int64, parts int32, mode string) job.Spec {
	return job.Spec{Generator: &job.GenSpec{Family: "torus", Width: w, Height: h}, Parts: parts, Mode: mode, Seed: 7}
}

func postmanGrid(w, h int64, closures float64, gseed int64, parts int32) job.Spec {
	return job.Spec{Kind: "postman", Generator: &job.GenSpec{Family: "grid", Width: w, Height: h, Closures: closures, Seed: gseed}, Parts: parts, Seed: 7}
}

func debruijn(alphabet, length int64) job.Spec {
	return job.Spec{Kind: "debruijn", DeBruijn: &jobkind.DeBruijnSpec{Alphabet: alphabet, Length: length}}
}

func superwalk(genomeLen, k, seed int64) job.Spec {
	return job.Spec{Kind: "superwalk", Superwalk: &jobkind.SuperwalkSpec{GenomeLen: genomeLen, K: k, Seed: seed}}
}

// Scenarios is the full registry, in run order.  The "ci" profile is the
// PR smoke + perf gate (small, minutes total); "soak" is the nightly
// superset whose job counts the profile multiplier scales up.
func Scenarios() []Scenario {
	both := []string{"ci", "soak"}
	return []Scenario{
		{
			Name:        "closed-cliques-modes",
			Description: "closed-loop ring-of-cliques jobs across all three remote-edge modes",
			Profiles:    both,
			// Cache off: these gate ENGINE throughput/latency; repeat
			// submissions must execute, not replay from the result cache
			// (dedup has its own dedicated scenario).
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       9, Concurrency: 3,
			Templates: []JobTemplate{
				genTpl(cliques(12, 5, 4, "current")),
				genTpl(cliques(12, 5, 4, "dedup")),
				genTpl(cliques(12, 5, 4, "proposed")),
			},
		},
		{
			Name:        "closed-rmat-modes",
			Description: "closed-loop Eulerised RMAT jobs across all three remote-edge modes",
			Profiles:    both,
			// Cache off: these gate ENGINE throughput/latency; repeat
			// submissions must execute, not replay from the result cache
			// (dedup has its own dedicated scenario).
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       6, Concurrency: 2,
			Templates: []JobTemplate{
				genTpl(rmat(20_000, 4, 4, "current")),
				genTpl(rmat(20_000, 4, 4, "dedup")),
				genTpl(rmat(20_000, 4, 4, "proposed")),
			},
		},
		{
			Name:        "closed-torus",
			Description: "closed-loop torus jobs",
			Profiles:    both,
			// Cache off: these gate ENGINE throughput/latency; repeat
			// submissions must execute, not replay from the result cache
			// (dedup has its own dedicated scenario).
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       4, Concurrency: 2,
			Templates: []JobTemplate{
				genTpl(torus(48, 48, 4, "current")),
				genTpl(torus(48, 48, 6, "proposed")),
			},
		},
		{
			Name:        "open-mixed-arrivals",
			Description: "open-loop Poisson-ish arrivals mixing all generator families and sizes",
			Profiles:    both,
			// Cache off: these gate ENGINE throughput/latency; repeat
			// submissions must execute, not replay from the result cache
			// (dedup has its own dedicated scenario).
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       10, RatePerSec: 8,
			Templates: []JobTemplate{
				genTpl(cliques(8, 5, 3, "current")),
				genTpl(torus(24, 24, 4, "dedup")),
				genTpl(rmat(8_000, 4, 4, "proposed")),
			},
		},
		{
			Name:        "upload-graphs",
			Description: "EULGRPH1 uploads (client-side generation) for torus and cliques inputs",
			Profiles:    both,
			// Cache off: these gate ENGINE throughput/latency; repeat
			// submissions must execute, not replay from the result cache
			// (dedup has its own dedicated scenario).
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       4, Concurrency: 2,
			Templates: []JobTemplate{
				uploadTpl(torus(32, 32, 4, "current")),
				uploadTpl(cliques(8, 5, 4, "dedup")),
			},
		},
		{
			Name:        "euler-outofcore",
			Description: "a larger-than-budget EULGRPH1 upload solved through the paged-CSR out-of-core path under a hard GOMEMLIMIT, byte-identical to the unconstrained solo solve",
			Profiles:    both,
			// The graph's in-memory solve footprint (CSR halves plus the
			// parallel engine's tour state, ~250 MiB for this torus) is
			// roughly 10x the serving process's GOMEMLIMIT, so the server
			// solves it out of core: streamed submit fingerprinting, paged
			// CSR reads under a page budget of a quarter of the limit
			// (6 MiB), and spilled partition state.  The solo reference
			// runs unconstrained and in memory, so the byte identity
			// check proves the paged path changes nothing.
			ServerArgs: []string{
				"-cache-bytes", "0",
				"-workers", "1",
			},
			ServerEnv: []string{"GOMEMLIMIT=24MiB"},
			// Observed peak is ~147 MiB (Phase 3's master walk buffer plus
			// GC-pacing overshoot above GOMEMLIMIT); the unconstrained
			// in-memory solve peaks at ~264 MiB, so 192 still asserts the
			// paged path's footprint while leaving CI headroom.
			MaxRSSMB: 192,
			Jobs:     2, Concurrency: 1,
			CompareSolo: true,
			ErrorBudget: 0,
			// The paged solve is deliberately I/O-bound; give each job
			// generous headroom on slow CI runners.
			JobTimeout: 240 * time.Second,
			Templates: []JobTemplate{
				uploadTpl(torus(768, 768, 64, "current")),
			},
		},
		{
			Name:        "stream-cancel-midread",
			Description: "streaming consumers that abort the circuit read a few steps in, then re-read fully",
			Profiles:    both,
			// Cache off: these gate ENGINE throughput/latency; repeat
			// submissions must execute, not replay from the result cache
			// (dedup has its own dedicated scenario).
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       4, Concurrency: 2,
			Behavior: BehaviorCancelMidStream,
			Templates: []JobTemplate{
				genTpl(cliques(128, 9, 8, "current")),
			},
		},
		{
			Name:        "delete-while-running",
			Description: "DELETE lands while the job is generating/running; it must end cancelled or done, never failed",
			Profiles:    both,
			// Identical specs, and the point is cancelling *running*
			// jobs — without this the first completed run would serve
			// the rest from cache before a DELETE can land.
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       3, Concurrency: 1,
			Behavior: BehaviorDeleteWhileRunning,
			Templates: []JobTemplate{
				genTpl(rmat(300_000, 4, 8, "current")),
			},
		},
		{
			Name:        "queue-backpressure",
			Description: "more in-flight jobs than pool workers, measuring queue wait under backlog",
			Profiles:    both,
			// Cache off: repeated specs must actually queue, or there
			// is no backlog to measure.
			ServerArgs: []string{"-workers", "2", "-cache-bytes", "0"},
			Jobs:       12, Concurrency: 6,
			Templates: []JobTemplate{
				genTpl(cliques(16, 7, 4, "current")),
				genTpl(cliques(16, 7, 4, "proposed")),
			},
		},
		{
			Name:        "tenant-fairness",
			Description: "a greedy batch tenant floods a small server; it must throttle with 429+Retry-After while the interactive tenant's latency stays budgeted",
			Profiles:    both,
			// Two workers, a tight default per-tenant queue (which the
			// greedy tenant gets), a declared roomier quota for the
			// protected vip tenant, and no result cache (the greedy
			// tenant submits identical specs; dedup would absorb the
			// flood this scenario exists to create).
			ServerArgs: []string{
				"-workers", "2",
				"-max-queue-per-tenant", "3",
				"-tenants", "vip:1:16",
				"-cache-bytes", "0",
			},
			Jobs: 32, Concurrency: 10,
			ExpectThrottle: true,
			// Greedy jobs are deliberately heavy so the two workers
			// saturate and the greedy queue actually fills even on fast
			// machines; the interactive tenant's jobs stay small.
			Templates: []JobTemplate{
				{Spec: cliques(96, 9, 6, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
				{Spec: cliques(96, 9, 6, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
				{Spec: cliques(96, 9, 6, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
				{Spec: cliques(6, 5, 2, "current"), Tenant: "vip", Class: "interactive"},
			},
		},
		{
			Name:        "dedup-storm",
			Description: "many identical submissions coalesce onto one execution; every response is the byte-identical cached circuit",
			Profiles:    both,
			// Retention must hold every storm job: the runner streams
			// each circuit after the fact, and soak multipliers scale
			// the count.
			ServerArgs: []string{"-retention", "1000"},
			Jobs:       50, Concurrency: 10,
			ExpectDedup: true,
			CompareSolo: true,
			Templates: []JobTemplate{
				genTpl(cliques(32, 7, 6, "current")),
			},
		},
		{
			Name:        "delta-storm",
			Description: "edge-diff submissions against a retained base: every delta must reuse partitions, match a from-scratch solve byte for byte, and beat its exec latency",
			Profiles:    both,
			// Cache and delta retention stay on (deltas need both); the
			// roomy job retention keeps every storm job streamable after
			// the fact under soak multipliers.
			ServerArgs: []string{"-retention", "1000"},
			Jobs:       6, Concurrency: 2,
			DeltaStorm:  true,
			CompareSolo: true,
			// Incremental recompute must come in well under the
			// from-scratch solve of the same patched graph.  The shape
			// matters: partition tours must be worth skipping, so the base
			// is a wide ring of cliques over many partitions (on skewed
			// RMAT graphs the giant hub partition is always dirty and
			// replay saves almost nothing).
			DeltaMaxExecRatio: 0.85,
			Templates: []JobTemplate{
				genTpl(cliques(2048, 13, 16, "current")),
			},
		},
		{
			Name:        "postman-routing",
			Description: "identical covering-tour requests over a street grid coalesce onto one postman execution and replay byte-identically",
			Profiles:    both,
			// Retention must hold every routing job: the runner streams
			// each tour after the fact, and soak multipliers scale the
			// count.
			ServerArgs: []string{"-retention", "1000"},
			Jobs:       10, Concurrency: 5,
			ExpectDedup: true,
			DedupKind:   "postman",
			CompareSolo: true,
			Templates: []JobTemplate{
				{Spec: postmanGrid(24, 16, 0.12, 5, 4), Class: "interactive"},
			},
		},
		{
			Name:        "assembly-batch",
			Description: "many small distinct superwalk assembly jobs plus a de Bruijn build served as batch traffic",
			Profiles:    both,
			// Cache off: distinct seeds per template plus round-robin
			// repeats must each assemble, gating the sequence kinds'
			// solve path rather than cache replay.
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       12, Concurrency: 4,
			Templates: []JobTemplate{
				{Spec: superwalk(1200, 15, 1), Class: "batch"},
				{Spec: superwalk(1200, 15, 2), Class: "batch"},
				{Spec: superwalk(1500, 17, 3), Class: "batch"},
				{Spec: superwalk(1500, 17, 4), Class: "batch"},
				{Spec: debruijn(2, 10), Class: "batch"},
			},
		},
		{
			Name:        "cluster-basic",
			Description: "coordinator + 2 worker processes serving generator jobs over the BSP wire",
			Profiles:    both,
			Topology:    TopoCluster,
			Workers:     2, MinNodes: 2, WorkerCapacity: 4,
			// Cache off: every job must actually cross the BSP wire,
			// not replay the first execution from the coordinator cache.
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       4, Concurrency: 2,
			Templates: []JobTemplate{
				genTpl(cliques(10, 5, 4, "current")),
				genTpl(torus(24, 24, 4, "proposed")),
			},
		},
		{
			Name:        "cluster-vs-solo",
			Description: "the same seeded job on a cluster and a standalone server must stream byte-identical circuits",
			Profiles:    both,
			Topology:    TopoCluster,
			Workers:     1, MinNodes: 1, WorkerCapacity: 4,
			// Cache off so both identical jobs execute over the wire
			// and each is independently diffed against the solo server.
			ServerArgs:  []string{"-cache-bytes", "0"},
			CompareSolo: true,
			Jobs:        2, Concurrency: 1,
			// Big enough that the v3 delta/varint codecs matter: this shape
			// moves ~42% fewer frame bytes than the v2 encoding did, and the
			// gated cluster_wire_bytes metric holds that floor.
			Templates: []JobTemplate{
				genTpl(cliques(32, 7, 6, "current")),
			},
		},
		{
			Name:        "cluster-chaos-kill-worker",
			Description: "kill one of two workers mid-run; retries must absorb the loss with no client-visible failures",
			Profiles:    both,
			Topology:    TopoCluster,
			Workers:     2, MinNodes: 1, WorkerCapacity: 4,
			// Cache off: post-chaos jobs must really execute on the
			// surviving worker, not replay the pre-chaos circuit.  With
			// retries the job in flight when the worker dies re-plans
			// onto the survivor, so the budget is zero.
			ServerArgs:      []string{"-cache-bytes", "0", "-job-retries", "3", "-retry-backoff", "100ms"},
			ChaosKillWorker: true,
			ErrorBudget:     0,
			Jobs:            6, Concurrency: 1,
			Templates: []JobTemplate{
				genTpl(cliques(10, 5, 4, "current")),
			},
		},
		{
			Name:        "kill-worker-retry",
			Description: "a worker's BSP connection drops mid-superstep; the coordinator must retry, re-plan, and stream a byte-identical circuit",
			Profiles:    both,
			Topology:    TopoCluster,
			Workers:     2, MinNodes: 2, WorkerCapacity: 4,
			// Cache off so every job crosses the wire; retries on so the
			// injected node loss is absorbed inside the coordinator.
			ServerArgs: []string{"-cache-bytes", "0", "-job-retries", "3", "-retry-backoff", "100ms"},
			// Worker 0 drops its barrier write once at superstep 1 —
			// the hub sees a lost node mid-job and must recover.
			WorkerFaults: []string{"bsp.node.wire=drop,step=1,times=1"},
			ExpectRetry:  true,
			CompareSolo:  true,
			ErrorBudget:  0,
			Jobs:         3, Concurrency: 1,
			Templates: []JobTemplate{
				genTpl(torus(24, 24, 4, "current")),
			},
		},
		{
			Name:        "flaky-wire",
			Description: "slow frames, failed dials, and a dropped connection across both workers; clients must never see a failure",
			Profiles:    both,
			Topology:    TopoCluster,
			Workers:     2, MinNodes: 2, WorkerCapacity: 4,
			ServerArgs: []string{"-cache-bytes", "0", "-job-retries", "3", "-retry-backoff", "100ms"},
			WorkerFaults: []string{
				"bsp.node.wire=delay,ms=40,times=6",
				"bsp.node.dial=error,times=2;bsp.node.wire=drop,step=2,times=1",
			},
			ExpectRetry: true,
			CompareSolo: true,
			ErrorBudget: 0,
			Jobs:        3, Concurrency: 1,
			Templates: []JobTemplate{
				genTpl(cliques(10, 5, 4, "current")),
			},
		},
		{
			Name:        "degraded-local",
			Description: "quorum never forms (one worker, min-nodes two); jobs must complete in-process, flagged degraded, byte-identical to solo",
			Profiles:    both,
			Topology:    TopoCluster,
			Workers:     1, MinNodes: 2, WorkerCapacity: 4,
			// The short -wait-nodes overrides the harness default so the
			// quorum wait fails fast and the degraded fallback fires.
			ServerArgs:     []string{"-cache-bytes", "0", "-wait-nodes", "1s", "-degraded-local"},
			ExpectDegraded: true,
			CompareSolo:    true,
			ErrorBudget:    0,
			Jobs:           2, Concurrency: 1,
			Templates: []JobTemplate{
				genTpl(cliques(8, 5, 4, "current")),
			},
		},
		{
			Name:        "soak-rmat-large",
			Description: "sustained large Eulerised RMAT jobs (nightly only)",
			Profiles:    []string{"soak"},
			// Soak scenarios exist to sustain engine load; dedup would
			// collapse their repeated specs into single executions.
			ServerArgs: []string{"-cache-bytes", "0"},
			Jobs:       4, Concurrency: 2,
			Templates: []JobTemplate{
				genTpl(rmat(1_000_000, 4, 8, "current")),
				genTpl(rmat(1_000_000, 4, 8, "proposed")),
			},
		},
		{
			Name:        "soak-sustained-mix",
			Description: "long closed-loop mix over every family and mode (nightly only)",
			Profiles:    []string{"soak"},
			ServerArgs:  []string{"-cache-bytes", "0"},
			Jobs:        40, Concurrency: 4,
			Templates: []JobTemplate{
				genTpl(cliques(24, 7, 6, "current")),
				genTpl(torus(64, 64, 6, "dedup")),
				genTpl(rmat(100_000, 4, 8, "proposed")),
				uploadTpl(cliques(16, 5, 4, "current")),
			},
		},
	}
}

// ByProfile returns the registry scenarios in the named profile.
func ByProfile(profile string) []Scenario {
	var out []Scenario
	for _, s := range Scenarios() {
		if s.InProfile(profile) {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the named scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("load: unknown scenario %q", name)
}
