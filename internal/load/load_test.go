package load

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobkind"
	"repro/internal/sched"
	"repro/internal/service/httpapi"
	"repro/internal/service/job"
)

// TestRegistryMeetsCIContract pins the acceptance criteria of the ci
// profile: at least 8 valid scenarios, at least one cluster chaos
// scenario, every generator family, every engine mode, uploads, both
// arrival disciplines, and the mid-stream-cancel and delete-while-running
// consumer behaviors.
func TestRegistryMeetsCIContract(t *testing.T) {
	ci := ByProfile("ci")
	if len(ci) < 8 {
		t.Fatalf("ci profile has %d scenarios, want >= 8", len(ci))
	}
	seen := map[string]bool{}
	families := map[string]bool{}
	modes := map[string]bool{}
	kinds := map[string]bool{}
	var chaos, cluster, upload, open, closed, cancelMid, deleteRun bool
	for _, sc := range ci {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %s", sc.Name)
		}
		seen[sc.Name] = true
		chaos = chaos || sc.ChaosKillWorker
		cluster = cluster || sc.Topology == TopoCluster
		open = open || sc.OpenLoop()
		closed = closed || !sc.OpenLoop()
		cancelMid = cancelMid || sc.Behavior == BehaviorCancelMidStream
		deleteRun = deleteRun || sc.Behavior == BehaviorDeleteWhileRunning
		for _, tpl := range sc.Templates {
			upload = upload || tpl.Upload
			if tpl.Spec.Generator != nil {
				families[tpl.Spec.Generator.Family] = true
			}
			if tpl.Spec.Kind == "" {
				kinds[jobkind.DefaultName] = true
			} else {
				kinds[tpl.Spec.Kind] = true
			}
			mode := tpl.Spec.Mode
			if mode == "" {
				mode = "current"
			}
			modes[mode] = true
		}
	}
	for _, f := range []string{"rmat", "torus", "cliques", "grid"} {
		if !families[f] {
			t.Errorf("ci profile never exercises generator family %s", f)
		}
	}
	for _, m := range []string{"current", "dedup", "proposed"} {
		if !modes[m] {
			t.Errorf("ci profile never exercises mode %s", m)
		}
	}
	for _, k := range jobkind.Names() {
		if !kinds[k] {
			t.Errorf("ci profile never exercises workload kind %s", k)
		}
	}
	for name, ok := range map[string]bool{
		"chaos": chaos, "cluster": cluster, "upload": upload,
		"open-loop": open, "closed-loop": closed,
		"cancel-mid-stream": cancelMid, "delete-while-running": deleteRun,
	} {
		if !ok {
			t.Errorf("ci profile is missing a %s scenario", name)
		}
	}

	// The scheduler scenarios are part of the ci contract: a dedup
	// storm and a multi-tenant fairness scenario with a protected
	// interactive tenant.
	var dedup, fairness bool
	for _, sc := range ci {
		dedup = dedup || sc.ExpectDedup
		if sc.ExpectThrottle {
			for _, tpl := range sc.Templates {
				if !tpl.MayThrottle && tpl.Class == "interactive" {
					fairness = true
				}
			}
		}
	}
	if !dedup {
		t.Error("ci profile is missing a dedup-storm scenario (ExpectDedup)")
	}
	var delta bool
	for _, sc := range ci {
		delta = delta || sc.DeltaStorm
	}
	if !delta {
		t.Error("ci profile is missing a delta-storm scenario (DeltaStorm)")
	}
	var kindDedup bool
	for _, sc := range ci {
		kindDedup = kindDedup || (sc.ExpectDedup && sc.DedupKind != "")
	}
	if !kindDedup {
		t.Error("ci profile is missing a per-kind dedup scenario (ExpectDedup + DedupKind)")
	}
	if !fairness {
		t.Error("ci profile is missing a tenant-fairness scenario (ExpectThrottle + protected interactive tenant)")
	}
	// soak must be a superset of ci.
	soakNames := map[string]bool{}
	for _, sc := range ByProfile("soak") {
		soakNames[sc.Name] = true
	}
	for _, sc := range ci {
		if !soakNames[sc.Name] {
			t.Errorf("ci scenario %s is not in the soak profile", sc.Name)
		}
	}
}

func TestScenarioValidateRejectsBadDeclarations(t *testing.T) {
	good, err := ByName("closed-cliques-modes")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no jobs", func(s *Scenario) { s.Jobs = 0 }},
		{"no templates", func(s *Scenario) { s.Templates = nil }},
		{"no arrival", func(s *Scenario) { s.Concurrency = 0; s.RatePerSec = 0 }},
		{"ambiguous arrival", func(s *Scenario) { s.RatePerSec = 5 }},
		{"no profiles", func(s *Scenario) { s.Profiles = nil }},
		{"chaos without cluster", func(s *Scenario) { s.ChaosKillWorker = true }},
		{"bad budget", func(s *Scenario) { s.ErrorBudget = 1.5 }},
		{"bad template", func(s *Scenario) { s.Templates[0].Spec.Generator.Family = "nope" }},
		{"dedup kind without dedup", func(s *Scenario) { s.DedupKind = "postman" }},
		{"unknown dedup kind", func(s *Scenario) { s.ExpectDedup = true; s.DedupKind = "hamilton" }},
		{"graphless upload", func(s *Scenario) { s.Templates[0] = JobTemplate{Spec: debruijn(2, 8), Upload: true} }},
	}
	for _, c := range cases {
		sc := good
		sc.Templates = append([]JobTemplate(nil), good.Templates...)
		g := *good.Templates[0].Spec.Generator
		sc.Templates[0].Spec.Generator = &g
		c.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", c.name)
		}
	}
}

// newTestServer runs the real HTTP API in-process so runner behaviors
// are exercised without spawning eulerd binaries.
func newTestServer(t *testing.T, workers int) *Client {
	t.Helper()
	return newTestServerOpts(t, workers, 64, true)
}

// newTestServerOpts exposes the scheduler quota and cache switches the
// scheduler-focused runner tests need.
func newTestServerOpts(t *testing.T, workers, maxQueuePerTenant int, withCache bool) *Client {
	t.Helper()
	return newTestServerCfg(t, sched.FairConfig{Workers: workers, MaxQueuePerTenant: maxQueuePerTenant}, withCache)
}

// newTestServerCfg runs the in-process API over an explicit scheduler
// configuration (declared tenants, quotas).
func newTestServerCfg(t *testing.T, fcfg sched.FairConfig, withCache bool) *Client {
	t.Helper()
	sc := sched.NewFair(fcfg)
	cfg := httpapi.Config{
		Store:   job.NewStore(100),
		Sched:   sc,
		DataDir: t.TempDir(),
	}
	if withCache {
		cache, err := sched.NewResultCache(filepath.Join(t.TempDir(), "cache.log"), 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
		// Delta retention rides on the cache, as in eulerd.
		cfg.Deltas = sched.NewDeltaStore(64 << 20)
		t.Cleanup(func() { cache.Close() })
	}
	srv := httpapi.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sc.Drain(ctx)
	})
	return NewClient(ts.URL)
}

func mustMetric(t *testing.T, res map[string]float64, name string) float64 {
	t.Helper()
	v, ok := res[name]
	if !ok {
		t.Fatalf("metric %s missing from scenario result: %v", name, res)
	}
	return v
}

func TestRunScenarioCompleteVerifiesCircuits(t *testing.T) {
	client := newTestServer(t, 4)
	sc := Scenario{
		Name:     "test-complete",
		Profiles: []string{"test"},
		Jobs:     6, Concurrency: 3,
		Templates: []JobTemplate{
			genTpl(cliques(6, 5, 3, "current")),
			genTpl(torus(12, 12, 4, "proposed")),
			uploadTpl(cliques(4, 5, 2, "dedup")),
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	vals := map[string]float64{}
	for k, m := range res.Metrics {
		vals[k] = m.Value
	}
	if got := mustMetric(t, vals, "jobs_done"); got != 6 {
		t.Fatalf("jobs_done = %v, want 6", got)
	}
	if got := mustMetric(t, vals, "error_rate"); got != 0 {
		t.Fatalf("error_rate = %v, want 0", got)
	}
	if got := mustMetric(t, vals, "verify_failures"); got != 0 {
		t.Fatalf("verify_failures = %v, want 0", got)
	}
	if got := mustMetric(t, vals, "steps_total"); got <= 0 {
		t.Fatalf("steps_total = %v, want > 0", got)
	}
	if got := mustMetric(t, vals, "latency_p95_ms"); got <= 0 {
		t.Fatalf("latency_p95_ms = %v, want > 0", got)
	}
	for _, gated := range []string{"throughput_jobs_per_sec", "latency_p50_ms", "steps_per_sec"} {
		if res.Metrics[gated].Better == "" {
			t.Errorf("metric %s should carry a gate direction", gated)
		}
	}
}

func TestRunScenarioCancelMidStream(t *testing.T) {
	client := newTestServer(t, 2)
	sc := Scenario{
		Name:     "test-cancel-midread",
		Profiles: []string{"test"},
		Jobs:     2, Concurrency: 2,
		Behavior: BehaviorCancelMidStream,
		Templates: []JobTemplate{
			genTpl(cliques(64, 9, 6, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Metrics["verify_failures"].Value != 0 {
		t.Fatalf("full re-read after a partial read must still verify: %+v", res.Metrics)
	}
	// The server must still be healthy after consumers walked away.
	if err := client.Healthz(); err != nil {
		t.Fatalf("server unhealthy after mid-stream cancels: %v", err)
	}
}

func TestRunScenarioDeleteWhileRunning(t *testing.T) {
	client := newTestServer(t, 1)
	sc := Scenario{
		Name:     "test-delete-running",
		Profiles: []string{"test"},
		Jobs:     2, Concurrency: 1,
		Behavior: BehaviorDeleteWhileRunning,
		Templates: []JobTemplate{
			genTpl(rmat(150_000, 4, 8, "current")),
		},
		JobTimeout: 90 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	done := res.Metrics["jobs_done"].Value
	cancelled := res.Metrics["jobs_cancelled"].Value
	if done+cancelled != 2 {
		t.Fatalf("every job must end done or cancelled: done=%v cancelled=%v", done, cancelled)
	}
	if res.Metrics["error_rate"].Value != 0 {
		t.Fatalf("delete-while-running must not count as failure: %+v", res.Metrics)
	}
}

func TestRunScenarioOpenLoop(t *testing.T) {
	client := newTestServer(t, 4)
	sc := Scenario{
		Name:     "test-open-loop",
		Profiles: []string{"test"},
		Jobs:     5, RatePerSec: 50,
		Templates: []JobTemplate{
			genTpl(cliques(4, 5, 2, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Metrics["jobs_done"].Value != 5 {
		t.Fatalf("open-loop jobs_done = %v, want 5", res.Metrics["jobs_done"].Value)
	}
}

func TestRunScenarioSurfacesVerifyDiffViaSolo(t *testing.T) {
	// Two independent in-process servers given the same seeded spec must
	// produce byte-identical streams, so CompareSolo passes.
	client := newTestServer(t, 2)
	solo := newTestServer(t, 2)
	sc := Scenario{
		Name:     "test-compare-solo",
		Profiles: []string{"test"},
		Jobs:     2, Concurrency: 1,
		CompareSolo: true,
		Templates: []JobTemplate{
			genTpl(cliques(8, 5, 6, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Solo: solo})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if res.Metrics["circuit_diffs"].Value != 0 {
		t.Fatalf("identical specs diverged across servers: %+v", res.Metrics)
	}
}

func TestRunScenarioChaosWithoutWorkersFails(t *testing.T) {
	client := newTestServer(t, 2)
	sc, err := ByName("cluster-chaos-kill-worker")
	if err != nil {
		t.Fatal(err)
	}
	sc.JobTimeout = 60 * time.Second
	if _, err := RunScenario(context.Background(), sc, Env{Client: client}); err == nil {
		t.Fatal("chaos scenario with no killable worker must fail the run")
	}
}

// TestRunScenarioDedupStorm drives identical submissions at an
// in-process cached server: exactly one execution, everything else
// hits or coalesces, every circuit verifies.
func TestRunScenarioDedupStorm(t *testing.T) {
	client := newTestServer(t, 4)
	sc := Scenario{
		Name:     "test-dedup-storm",
		Profiles: []string{"test"},
		Jobs:     20, Concurrency: 5,
		ExpectDedup: true,
		Templates: []JobTemplate{
			genTpl(cliques(16, 7, 4, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got := res.Metrics["server_jobs_started"].Value; got != 1 {
		t.Fatalf("server_jobs_started = %v, want 1", got)
	}
	if got := res.Metrics["dedup_hits"].Value; got != 19 {
		t.Fatalf("dedup_hits = %v, want 19", got)
	}
	if got := res.Metrics["verify_failures"].Value; got != 0 {
		t.Fatalf("verify_failures = %v, want 0", got)
	}
	if got := res.Metrics["jobs_done"].Value; got != 20 {
		t.Fatalf("jobs_done = %v, want 20", got)
	}
}

// TestRunScenarioDedupStormFailsWithoutCache: the same scenario against
// a cache-less server must fail its dedup contract — the gate actually
// gates.
func TestRunScenarioDedupStormFailsWithoutCache(t *testing.T) {
	client := newTestServerOpts(t, 4, 64, false)
	sc := Scenario{
		Name:     "test-dedup-nocache",
		Profiles: []string{"test"},
		Jobs:     4, Concurrency: 2,
		ExpectDedup: true,
		Templates: []JobTemplate{
			genTpl(cliques(8, 5, 2, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	if _, err := RunScenario(context.Background(), sc, Env{Client: client}); err == nil {
		t.Fatal("dedup contract passed against a server without a result cache")
	}
}

// TestRunScenarioKindMix drives all three non-default workload kinds
// through the runner in one scenario: every result re-verifies through
// its kind and the report gains per-kind p95 latency gates.
func TestRunScenarioKindMix(t *testing.T) {
	client := newTestServer(t, 4)
	sc := Scenario{
		Name:     "test-kind-mix",
		Profiles: []string{"test"},
		Jobs:     6, Concurrency: 3,
		Templates: []JobTemplate{
			{Spec: postmanGrid(10, 8, 0.1, 3, 3), Class: "interactive"},
			{Spec: debruijn(2, 9), Class: "batch"},
			{Spec: superwalk(500, 11, 2), Class: "batch"},
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got := res.Metrics["jobs_done"].Value; got != 6 {
		t.Fatalf("jobs_done = %v, want 6", got)
	}
	if got := res.Metrics["verify_failures"].Value; got != 0 {
		t.Fatalf("verify_failures = %v, want 0", got)
	}
	for _, k := range []string{"postman", "debruijn", "superwalk"} {
		m, ok := res.Metrics["kind_"+k+"_latency_p95_ms"]
		if !ok || m.Better != "lower" {
			t.Errorf("kind %s p95 missing or ungated: %+v", k, res.Metrics)
		}
	}
}

// TestRunScenarioPostmanDedup: identical postman submissions must
// coalesce onto one execution, and the per-kind ledger proves it.
func TestRunScenarioPostmanDedup(t *testing.T) {
	client := newTestServer(t, 4)
	sc := Scenario{
		Name:     "test-postman-dedup",
		Profiles: []string{"test"},
		Jobs:     8, Concurrency: 4,
		ExpectDedup: true,
		DedupKind:   "postman",
		Templates: []JobTemplate{
			{Spec: postmanGrid(12, 10, 0.1, 4, 3), Class: "interactive"},
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got := res.Metrics["server_jobs_started"].Value; got != 1 {
		t.Fatalf("server_jobs_started = %v, want 1", got)
	}
	if got := res.Metrics["kind_postman_jobs_started"].Value; got != 1 {
		t.Fatalf("kind_postman_jobs_started = %v, want 1", got)
	}
	if got := res.Metrics["verify_failures"].Value; got != 0 {
		t.Fatalf("verify_failures = %v, want 0", got)
	}
}

// TestRunScenarioTenantThrottle: a flooding tenant is throttled with
// well-formed 429s while the protected interactive tenant completes
// everything; throttles are not failures and the per-tenant latency
// metrics land in the report.
func TestRunScenarioTenantThrottle(t *testing.T) {
	// Like the registry's tenant-fairness scenario, the protected vip
	// tenant gets a declared roomy quota: the tight default quota is
	// the greedy tenant's, and vip must never 429 even when several of
	// its jobs are in flight at once on a slow machine.
	client := newTestServerCfg(t, sched.FairConfig{
		Workers:           1,
		MaxQueuePerTenant: 2,
		Tenants:           map[string]sched.TenantConfig{"vip": {Weight: 1, MaxQueue: 16}},
	}, false)
	sc := Scenario{
		Name:     "test-tenant-throttle",
		Profiles: []string{"test"},
		Jobs:     18, Concurrency: 6,
		ExpectThrottle: true,
		Templates: []JobTemplate{
			{Spec: cliques(32, 7, 4, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
			{Spec: cliques(32, 7, 4, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
			{Spec: cliques(32, 7, 4, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
			{Spec: cliques(32, 7, 4, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
			{Spec: cliques(32, 7, 4, "current"), Tenant: "greedy", Class: "batch", MayThrottle: true},
			{Spec: cliques(4, 5, 2, "current"), Tenant: "vip", Class: "interactive"},
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if got := res.Metrics["throttled_jobs"].Value; got < 1 {
		t.Fatalf("throttled_jobs = %v, want >= 1", got)
	}
	if got := res.Metrics["error_rate"].Value; got != 0 {
		t.Fatalf("error_rate = %v: throttling must not count as failure", got)
	}
	vip, ok := res.Metrics["tenant_vip_latency_p95_ms"]
	if !ok || vip.Better != "lower" {
		t.Fatalf("protected tenant p95 missing or ungated: %+v", res.Metrics)
	}
	if greedy, ok := res.Metrics["tenant_greedy_latency_p95_ms"]; ok && greedy.Better != "" {
		t.Fatalf("throttleable tenant p95 must be informational, got %+v", greedy)
	}
}

// TestRunScenarioDeltaStorm drives the delta-submission flow against
// in-process servers: the base solve retains state, every diff job
// reuses partitions, verifies on the patched graph, and byte-matches a
// from-scratch solve on the reference server.
func TestRunScenarioDeltaStorm(t *testing.T) {
	client := newTestServer(t, 4)
	solo := newTestServer(t, 2)
	sc := Scenario{
		Name:     "test-delta-storm",
		Profiles: []string{"test"},
		Jobs:     6, Concurrency: 2,
		DeltaStorm:  true,
		CompareSolo: true,
		Templates: []JobTemplate{
			genTpl(cliques(16, 7, 4, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	res, err := RunScenario(context.Background(), sc, Env{Client: client, Solo: solo, Logf: t.Logf})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	vals := map[string]float64{}
	for k, m := range res.Metrics {
		vals[k] = m.Value
	}
	if got := mustMetric(t, vals, "jobs_done"); got != 6 {
		t.Fatalf("jobs_done = %v, want 6", got)
	}
	if got := mustMetric(t, vals, "verify_failures"); got != 0 {
		t.Fatalf("verify_failures = %v, want 0", got)
	}
	if got := mustMetric(t, vals, "circuit_diffs"); got != 0 {
		t.Fatalf("circuit_diffs = %v, want 0", got)
	}
	if got := mustMetric(t, vals, "server_delta_jobs"); got < 1 {
		t.Fatalf("server_delta_jobs = %v, want >= 1", got)
	}
	if got := mustMetric(t, vals, "delta_reused_parts_total"); got < 1 {
		t.Fatalf("delta_reused_parts_total = %v, want >= 1", got)
	}
	if m, ok := res.Metrics["delta_exec_p95_ms"]; !ok || m.Better != "lower" {
		t.Fatalf("delta_exec_p95_ms missing or ungated: %+v", res.Metrics)
	}
}

// TestRunScenarioDeltaStormFailsWithoutRetention: against a server with
// no result cache (so no fingerprints and no retained delta state) the
// delta contract must fail loudly, not silently degrade.
func TestRunScenarioDeltaStormFailsWithoutRetention(t *testing.T) {
	client := newTestServerOpts(t, 2, 64, false)
	solo := newTestServer(t, 2)
	sc := Scenario{
		Name:     "test-delta-nocache",
		Profiles: []string{"test"},
		Jobs:     2, Concurrency: 1,
		DeltaStorm:  true,
		CompareSolo: true,
		Templates: []JobTemplate{
			genTpl(cliques(8, 5, 2, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	if _, err := RunScenario(context.Background(), sc, Env{Client: client, Solo: solo}); err == nil {
		t.Fatal("delta contract passed against a server without retained state")
	}
}

// TestScenarioValidateDeltaStorm pins the declaration rules of the
// delta flow.
func TestScenarioValidateDeltaStorm(t *testing.T) {
	good, err := ByName("delta-storm")
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("registry delta-storm invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no solo comparison", func(s *Scenario) { s.CompareSolo = false }},
		{"two templates", func(s *Scenario) { s.Templates = append(s.Templates, s.Templates[0]) }},
		{"uploaded base", func(s *Scenario) { s.Templates[0].Upload = true }},
		{"cluster topology", func(s *Scenario) { s.Topology = TopoCluster; s.Workers = 2; s.MinNodes = 2 }},
		{"graphless kind", func(s *Scenario) { s.Templates[0] = JobTemplate{Spec: debruijn(2, 8)} }},
		{"ratio without delta", func(s *Scenario) { s.DeltaStorm = false; s.CompareSolo = false }},
		{"negative ratio", func(s *Scenario) { s.DeltaMaxExecRatio = -1 }},
	}
	for _, c := range cases {
		sc := good
		sc.Templates = append([]JobTemplate(nil), good.Templates...)
		g := *good.Templates[0].Spec.Generator
		sc.Templates[0].Spec.Generator = &g
		c.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid delta scenario", c.name)
		}
	}
}

func TestClientScrapesQueueMetrics(t *testing.T) {
	client := newTestServer(t, 1)
	sc := Scenario{
		Name:     "test-metrics-scrape",
		Profiles: []string{"test"},
		Jobs:     3, Concurrency: 3,
		Templates: []JobTemplate{
			genTpl(cliques(4, 5, 2, "current")),
		},
		JobTimeout: 60 * time.Second,
	}
	if _, err := RunScenario(context.Background(), sc, Env{Client: client}); err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, key := range []string{"jobs_started", "queue_wait_nanos", "exec_nanos", "queue_peak_depth"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics snapshot missing %s: %v", key, m)
		}
	}
	if v, ok := m["exec_nanos"].(float64); !ok || v <= 0 {
		t.Errorf("exec_nanos = %v, want > 0", m["exec_nanos"])
	}
}
