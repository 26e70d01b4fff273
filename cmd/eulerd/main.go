// Command eulerd serves Euler-circuit computation as an HTTP/JSON job
// service: clients POST a graph (generator spec or EULGRPH1 upload),
// poll the job, and stream the resulting circuit as NDJSON.
//
// Usage:
//
//	eulerd -addr :8080 -workers 4 -data /var/lib/eulerd
//
// Beyond plain Euler circuits, the spec's "kind" field selects a
// workload family from the internal/jobkind registry — "euler"
// (default), "postman" (covering tours of non-Eulerian graphs),
// "debruijn" (de Bruijn sequences), and "superwalk" (DNA-assembly
// superwalks) — all sharing the same job pipeline, result cache, and
// cluster path, with kind-isolated fingerprints and per-kind
// kinds.<name>.{started,completed,cache_hits} metrics.
//
// Scheduling is multi-tenant: the tenant comes from the X-Tenant header
// (or a digest of X-API-Key), submissions are dispatched by weighted fair
// queueing with per-tenant queue and concurrency quotas (-tenants,
// -max-queue-per-tenant, -max-running-per-tenant) under a shared backlog
// cap (-max-queue-total), over-quota submissions are rejected early with
// 429 + Retry-After, and identical submissions are coalesced and served
// from a content-addressed result cache (-cache-bytes; 0 disables it).
//
// Cluster mode splits the BSP engine across processes: a coordinator
// serves the HTTP API and fans each job's partitions out over joined
// worker processes, which host the engine workers and exchange superstep
// messages with the coordinator over length-prefixed TCP frames.
//
//	eulerd -role coordinator -addr :8080 -cluster :9090 -min-nodes 2
//	eulerd -role worker -join host:9090 -capacity 8
//
// Endpoints:
//
//	POST   /v1/jobs              submit (JSON spec, EULGRPH1 body, or ?base= edge diff)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         status + report
//	GET    /v1/jobs/{id}/circuit stream the circuit as NDJSON
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/healthz           liveness + pool gauges
//	GET    /v1/metrics           counters + per-phase timings
//	GET    /v1/cluster           cluster role, nodes, and job counters
//	GET    /debug/vars           the same counters via expvar
//
// Under a GOMEMLIMIT, a standalone server solves an uploaded euler graph
// whose in-memory solve would not fit under it out of core, from a paged
// disk CSR; the circuit is the same.
//
// On SIGINT/SIGTERM the server stops accepting requests and drains the
// worker pool, cancelling whatever is still running when the grace
// period expires.  A worker-role process simply leaves the cluster; jobs
// it was running fail on the coordinator.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultpoint"
	"repro/internal/sched"
	"repro/internal/service/httpapi"
	"repro/internal/service/job"
)

func main() {
	var (
		role      = flag.String("role", "standalone", "process role: standalone, coordinator, or worker")
		addr      = flag.String("addr", ":8080", "HTTP listen address (standalone/coordinator)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent jobs")
		dataDir   = flag.String("data", "", "scratch directory (default: a fresh temp dir)")
		retention = flag.Int("retention", 100, "finished jobs to retain")
		maxUpload = flag.Int64("max-upload", httpapi.DefaultMaxUploadBytes, "max uploaded graph bytes")
		grace     = flag.Duration("grace", 30*time.Second, "shutdown grace period")

		tenants     = flag.String("tenants", "", "per-tenant overrides, name:weight[:maxqueue[:maxrunning]],... (e.g. gold:4,free:1:8:2)")
		maxQueueTen = flag.Int("max-queue-per-tenant", 64, "default per-tenant queued-job quota")
		maxRunTen   = flag.Int("max-running-per-tenant", 0, "default per-tenant concurrency quota (0 = workers)")
		maxQueueAll = flag.Int("max-queue-total", 1024, "global queued-job backstop across all tenants (0 = unlimited); also caps attached-graph memory at ~4 MiB per queued job")
		cacheBytes  = flag.Int64("cache-bytes", 256<<20, "result-cache live-entry byte budget; 0 disables dedup and caching (the backing log is append-only: disk is reclaimed on restart, watch cache_log_bytes)")
		deltaBytes  = flag.Int64("delta-bytes", 64<<20, "retained delta-base replay-state byte budget for edge-diff submissions; 0 disables delta retention (requires the result cache; cluster runs never retain)")

		clusterAddr  = flag.String("cluster", ":9090", "coordinator: cluster listen address for worker joins")
		minNodes     = flag.Int("min-nodes", 1, "coordinator: worker nodes a job waits for")
		waitNodes    = flag.Duration("wait-nodes", 30*time.Second, "coordinator: how long a job waits for min-nodes")
		stepTimeout  = flag.Duration("step-timeout", 2*time.Minute, "coordinator: per-superstep barrier timeout")
		jobRetries   = flag.Int("job-retries", 2, "coordinator: retries per job after a retryable cluster failure (node lost, step timeout); each retry re-plans over the surviving nodes")
		retryBackoff = flag.Duration("retry-backoff", 500*time.Millisecond, "coordinator: pause before each job retry")
		degraded     = flag.Bool("degraded-local", false, "coordinator: when quorum is unreachable (or retries are exhausted), complete the job in-process and flag it degraded")

		join     = flag.String("join", "", "worker: coordinator cluster address to join")
		capacity = flag.Int("capacity", runtime.GOMAXPROCS(0), "worker: engine workers this node hosts")
		nodeName = flag.String("node-name", "", "worker: name reported to the coordinator (default: hostname)")

		faultSpec = flag.String("faultpoints", "", "arm fault-injection points, e.g. 'bsp.node.wire=drop,step=1' (testing)")
	)
	flag.Parse()

	if err := faultpoint.Arm(*faultSpec); err != nil {
		fatal(err)
	}

	tenantCfg, err := sched.ParseTenantSpec(*tenants)
	if err != nil {
		fatal(err)
	}

	switch *role {
	case "worker":
		runWorkerRole(*join, *capacity, *nodeName)
	case "standalone", "coordinator":
		runServerRole(*role == "coordinator", serverConfig{
			addr: *addr, workers: *workers, dataDir: *dataDir,
			retention: *retention, maxUpload: *maxUpload, grace: *grace,
			clusterAddr: *clusterAddr, minNodes: *minNodes, waitNodes: *waitNodes,
			stepTimeout: *stepTimeout, jobRetries: *jobRetries,
			retryBackoff: *retryBackoff, degradedLocal: *degraded,
			tenants: tenantCfg, maxQueuePerTenant: *maxQueueTen, maxRunningPerTenant: *maxRunTen,
			maxQueueTotal: *maxQueueAll, cacheBytes: *cacheBytes,
			deltaBytes: *deltaBytes,
		})
	default:
		fatal(fmt.Errorf("unknown role %q (want standalone, coordinator, or worker)", *role))
	}
}

// runWorkerRole joins a coordinator and hosts engine workers until
// SIGINT/SIGTERM.
func runWorkerRole(join string, capacity int, name string) {
	if join == "" {
		fatal(errors.New("worker role requires -join <coordinator cluster address>"))
	}
	if name == "" {
		if hn, err := os.Hostname(); err == nil {
			name = hn
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf := log.New(os.Stderr, "eulerd: ", log.LstdFlags).Printf
	fmt.Printf("eulerd: worker %q joining %s (capacity %d)\n", name, join, capacity)
	err := cluster.RunWorker(ctx, join, cluster.WorkerOptions{
		Name: name, Capacity: capacity, Logf: logf,
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	fmt.Println("eulerd: worker leaving, bye")
}

type serverConfig struct {
	addr          string
	workers       int
	dataDir       string
	retention     int
	maxUpload     int64
	grace         time.Duration
	clusterAddr   string
	minNodes      int
	waitNodes     time.Duration
	stepTimeout   time.Duration
	jobRetries    int
	retryBackoff  time.Duration
	degradedLocal bool

	tenants             map[string]sched.TenantConfig
	maxQueuePerTenant   int
	maxRunningPerTenant int
	maxQueueTotal       int
	cacheBytes          int64
	deltaBytes          int64
}

// runServerRole runs the HTTP job service; as a coordinator it also opens
// the cluster listener and executes jobs across joined workers.
func runServerRole(coordinator bool, cfg serverConfig) {
	dir := cfg.dataDir
	if dir == "" {
		d, err := os.MkdirTemp("", "eulerd-")
		if err != nil {
			fatal(err)
		}
		dir = d
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	scheduler := sched.NewFair(sched.FairConfig{
		Workers:             cfg.workers,
		MaxQueuePerTenant:   cfg.maxQueuePerTenant,
		MaxRunningPerTenant: cfg.maxRunningPerTenant,
		MaxQueueTotal:       cfg.maxQueueTotal,
		Tenants:             cfg.tenants,
	})
	var cache *sched.ResultCache
	if cfg.cacheBytes > 0 {
		c, err := sched.NewResultCache(filepath.Join(dir, "result-cache.log"), cfg.cacheBytes)
		if err != nil {
			fatal(err)
		}
		cache = c
	}
	var deltas *sched.DeltaStore
	if cache != nil && cfg.deltaBytes > 0 {
		// Delta retention rides on the result cache: base fingerprints
		// are only computed when submissions are content-addressed.
		deltas = sched.NewDeltaStore(cfg.deltaBytes)
	}
	store := job.NewStore(cfg.retention)
	apiCfg := httpapi.Config{
		Store:          store,
		Sched:          scheduler,
		Cache:          cache,
		Deltas:         deltas,
		DataDir:        dir,
		MaxUploadBytes: cfg.maxUpload,
	}

	var coord *cluster.Coordinator
	if coordinator {
		logf := log.New(os.Stderr, "eulerd: ", log.LstdFlags).Printf
		c, err := cluster.NewCoordinator(cfg.clusterAddr, cluster.Options{
			MinNodes:      cfg.minNodes,
			WaitNodes:     cfg.waitNodes,
			StepTimeout:   cfg.stepTimeout,
			JobRetries:    cfg.jobRetries,
			RetryBackoff:  cfg.retryBackoff,
			DegradedLocal: cfg.degradedLocal,
			Logf:          logf,
		})
		if err != nil {
			fatal(err)
		}
		coord = c
		defer coord.Close()
		apiCfg.Runner = coord.Solve
		apiCfg.Cluster = coord
	}

	api := httpapi.New(apiCfg)
	expvar.Publish("eulerd", expvar.Func(func() any { return api.MetricsSnapshot() }))

	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Addr: cfg.addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	cacheDesc := "off"
	if cache != nil {
		cacheDesc = fmt.Sprintf("%d MiB", cfg.cacheBytes>>20)
	}
	if coordinator {
		fmt.Printf("eulerd: coordinator listening on %s (cluster %s, min %d nodes, %d job slots, cache %s, data %s)\n",
			cfg.addr, coord.Addr(), cfg.minNodes, scheduler.Workers(), cacheDesc, dir)
	} else {
		fmt.Printf("eulerd: listening on %s (%d workers, cache %s, data %s)\n",
			cfg.addr, scheduler.Workers(), cacheDesc, dir)
	}

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Println("eulerd: draining...")
	graceCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := srv.Shutdown(graceCtx); err != nil {
		fmt.Fprintf(os.Stderr, "eulerd: http shutdown: %v\n", err)
	}
	if err := scheduler.Drain(graceCtx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "eulerd: scheduler drain: %v\n", err)
	}
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "eulerd: cache close: %v\n", err)
		}
	}
	fmt.Println("eulerd: bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "eulerd: %v\n", err)
	os.Exit(1)
}
