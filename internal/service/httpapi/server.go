// Package httpapi is eulerd's HTTP/JSON layer: it decodes job
// submissions, hands them to the multi-tenant scheduler, and serves
// job lifecycle, circuit streaming, health, and metrics endpoints.
// The engine computes; this package only schedules and transports.
//
// Tenancy: the tenant is taken from the X-Tenant header, else derived
// from the X-API-Key header, else "default"; the priority class comes
// from X-Class ("interactive" or "batch", default batch).  Admission
// rejections answer 429 with a Retry-After header and a structured
// JSON error body (see README, "Error responses").
package httpapi

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/oocgraph"
	"repro/internal/sched"
	"repro/internal/service/job"
	"repro/internal/verify"
)

// DefaultMaxUploadBytes bounds uploaded EULGRPH1 bodies (256 MiB).
const DefaultMaxUploadBytes = 256 << 20

// buildSlotWait bounds how long a submission waits for one of the
// workers-many submission-time graph-build slots before being bounced
// with 429; it keeps a burst of slow builds from parking handler
// goroutines indefinitely.
const buildSlotWait = 10 * time.Second

// keepGraphMaxEdges is the largest input graph a queued job keeps
// attached after submission-time fingerprinting (~4 MiB of CSR);
// bigger graphs are rebuilt by the worker.  Together with the
// scheduler's global queue cap this bounds worst-case attached-graph
// memory to max-queue-total × ~4 MiB — pre-scheduler, queued jobs
// pinned no graph memory at all, so this product is the figure to
// watch when raising either knob.
const keepGraphMaxEdges = 1 << 16

// inMemoryBytesPerEdge estimates the peak live heap of an in-memory
// solve per input edge, CSR included.  Measured as the largest live heap
// after any GC (gctrace, GOGC=25, Go 1.24) of a 4-part FindCircuitStream
// on a 2-core x86-64 Linux machine, five runs each: a 768x768 torus
// (1 179 648 edges) took 179-200 B/edge (VmHWM 263-297 MiB), the RMAT
// graph of 400 000 vertices, average degree 5, seed 42 (1 048 994 edges)
// 185-190 B/edge (VmHWM 249-259 MiB).  The constant is the largest.
const inMemoryBytesPerEdge = 200

// ClusterStatus supplies the GET /v1/cluster payload; a server without
// one reports itself standalone.
type ClusterStatus interface {
	ClusterStatus() any
}

// Server wires the job store, the scheduler, and the HTTP handlers.
type Server struct {
	jobs    *job.Store
	sched   *sched.Fair
	cache   *sched.ResultCache
	deltas  *sched.DeltaStore
	dataDir string
	// solve is the solve pipeline every graph-backed job runs through;
	// local marks the in-process euler.Solve, the only solver that can
	// run out of core or retain delta replay state.
	solve   euler.Solver
	local   bool
	cluster ClusterStatus

	// memLimit is GOMEMLIMIT (MaxInt64 when unset), read once by New;
	// it decides pagedInput and pageBytes.
	memLimit int64

	maxUploadBytes int64
	metrics        metrics
	// buildSem bounds concurrent submission-time graph builds to the
	// worker count: admission quotas only cover queued jobs, and
	// without this a burst of accepted submissions would materialise
	// arbitrarily many graphs on handler goroutines at once.
	buildSem chan struct{}

	// beforeRun, when set, is called by the worker after a job leaves
	// the queue and before the engine starts; tests use it to hold a
	// worker in place deterministically.
	beforeRun func(*job.Job)
}

// Config configures a Server.
type Config struct {
	// Store is the job registry (required).
	Store *job.Store
	// Sched is the scheduler feeding the worker pool (required); see
	// sched.NewFair.
	Sched *sched.Fair
	// DataDir is where per-job scratch directories are created
	// (required; must exist).
	DataDir string
	// MaxUploadBytes caps uploaded graph bodies; 0 means
	// DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// Runner is the solve pipeline jobs run through; nil means the
	// in-process euler.Solve.  A cluster coordinator installs its Solve
	// here to fan Phases 1–2 out over its worker nodes.
	Runner euler.Solver
	// Cluster, when set, serves cluster topology at GET /v1/cluster.
	Cluster ClusterStatus
	// Cache, when set, coalesces duplicate submissions and serves
	// completed circuits by content address.
	Cache *sched.ResultCache
	// Deltas, when set (and Cache is too), retains replay state of
	// locally solved euler jobs so clients can submit edge diffs against
	// a base fingerprint instead of a full graph.
	Deltas *sched.DeltaStore
}

// New returns a Server for the given configuration.
func New(cfg Config) *Server {
	max := cfg.MaxUploadBytes
	if max <= 0 {
		max = DefaultMaxUploadBytes
	}
	solve := cfg.Runner
	if solve == nil {
		solve = euler.Solve
	}
	builds := 1
	if cfg.Sched != nil && cfg.Sched.Workers() > 1 {
		builds = cfg.Sched.Workers()
	}
	s := &Server{
		jobs:           cfg.Store,
		sched:          cfg.Sched,
		cache:          cfg.Cache,
		deltas:         cfg.Deltas,
		dataDir:        cfg.DataDir,
		solve:          solve,
		local:          cfg.Runner == nil,
		cluster:        cfg.Cluster,
		maxUploadBytes: max,
		buildSem:       make(chan struct{}, builds),
		memLimit:       debug.SetMemoryLimit(-1),
	}
	s.metrics.kinds = newKindCounters()
	return s
}

// Route is one registered endpoint.  The table behind Handler is also
// exported through Routes so the OpenAPI sync check can diff the spec
// against what the server actually serves.
type Route struct {
	Method  string
	Pattern string
}

// routeTable is the single source of truth for the mux: every endpoint
// is declared here exactly once.
func (s *Server) routeTable() []struct {
	Route
	handler http.HandlerFunc
} {
	return []struct {
		Route
		handler http.HandlerFunc
	}{
		{Route{"POST", "/v1/jobs"}, s.handleSubmit},
		{Route{"GET", "/v1/jobs"}, s.handleList},
		{Route{"GET", "/v1/jobs/{id}"}, s.handleGet},
		{Route{"GET", "/v1/jobs/{id}/circuit"}, s.handleCircuit},
		{Route{"DELETE", "/v1/jobs/{id}"}, s.handleCancel},
		{Route{"GET", "/v1/healthz"}, s.handleHealthz},
		{Route{"GET", "/v1/metrics"}, s.handleMetrics},
		{Route{"GET", "/v1/cluster"}, s.handleCluster},
	}
}

// Routes lists every endpoint the server registers, in route-table order.
func (s *Server) Routes() []Route {
	table := s.routeTable()
	routes := make([]Route, len(table))
	for i, rt := range table {
		routes[i] = rt.Route
	}
	return routes
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routeTable() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	return mux
}

// errorBody is the uniform error response shape: every non-2xx answer
// carries a human-readable Error plus a machine-readable Code.  Kind is
// set on workload-kind spec rejections; Tenant and RetryAfterSeconds on
// scheduler refusals (429/503) — so clients can branch
// programmatically.  The schema is documented in README.
type errorBody struct {
	Error             string `json:"error"`
	Code              string `json:"code"`
	Kind              string `json:"kind,omitempty"`
	Tenant            string `json:"tenant,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// Error codes shared by the plain writeError paths.  The structured
// producers add their own ("unknown_kind", "invalid_kind_spec",
// "delta_unsupported", "throttled", "draining").
const (
	codeBadRequest       = "bad_request"       // malformed spec, body, or query
	codeNotFound         = "not_found"         // no job with that ID
	codeWrongState       = "wrong_state"       // job exists but is in the wrong lifecycle state
	codeInternal         = "internal"          // server-side failure
	codeUnknownBase      = "unknown_base"      // delta base fingerprint has no retained state
	codeDeltaUnsupported = "delta_unsupported" // job kind does not accept deltas
	codePayloadTooLarge  = "payload_too_large" // upload body or declared counts over the caps
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// codeForStatus maps a status to the fallback code for errors that
// carry no structured code of their own.
func codeForStatus(status int) string {
	if status >= 500 {
		return codeInternal
	}
	return codeBadRequest
}

// writeSpecError renders a submission rejection: workload-kind spec
// errors answer with their structured code/kind body ("unknown_kind",
// "invalid_kind_spec", "delta_unsupported"); everything else gets the
// status-derived fallback code.
func writeSpecError(w http.ResponseWriter, status int, err error) {
	var spec *jobkind.SpecError
	if errors.As(err, &spec) {
		writeJSON(w, http.StatusBadRequest, errorBody{
			Error: spec.Msg,
			Code:  spec.Code,
			Kind:  spec.Kind,
		})
		return
	}
	if status == http.StatusRequestEntityTooLarge {
		writeError(w, status, codePayloadTooLarge, "%v", err)
		return
	}
	writeError(w, status, codeForStatus(status), "%v", err)
}

// errTooLarge marks upload rejections that answer 413 with the
// payload_too_large code: bodies over the byte cap and headers whose
// declared counts exceed what one server will host.
type errTooLarge struct{ msg string }

func (e *errTooLarge) Error() string { return e.msg }

// writeSchedError maps a scheduler refusal onto the wire: admission
// rejections are 429 with a Retry-After hint, a draining scheduler is
// 503.  Anything else is an internal error.
func writeSchedError(w http.ResponseWriter, err error) {
	var rej *sched.Rejected
	switch {
	case errors.As(err, &rej):
		secs := int(math.Ceil(rej.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:             rej.Error(),
			Code:              "throttled",
			Tenant:            rej.Tenant,
			RetryAfterSeconds: secs,
		})
	case errors.Is(err, sched.ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error:             "server is draining",
			Code:              "draining",
			RetryAfterSeconds: 1,
		})
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
	}
}

// tenantOf resolves the request's tenant: X-Tenant verbatim when it is
// a short identifier, a digest of it when over-long (truncation would
// silently merge distinct tenants sharing a prefix — and could split a
// multi-byte rune), else a digest of X-API-Key so keys never appear in
// metrics or logs, else the default tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		if len(t) > 64 {
			sum := sha256.Sum256([]byte(t))
			return "tenant-" + hex.EncodeToString(sum[:8])
		}
		return t
	}
	if k := r.Header.Get("X-API-Key"); k != "" {
		// 64 digest bits, like over-long tenant names: a 32-bit digest
		// would birthday-collide distinct keys into one quota bucket at
		// realistic key counts.
		sum := sha256.Sum256([]byte(k))
		return "key-" + hex.EncodeToString(sum[:8])
	}
	return sched.DefaultTenant
}

// handleSubmit accepts either an application/json Spec (generator jobs)
// or a raw EULGRPH1 body (upload jobs, engine options in the query
// string) in stages: admit the tenant, ingest the request, resolve its
// input, route it through the result cache (a hit, a ride on an
// identical in-flight execution, or the lead), enqueue a leader, and
// register the job.  A job is registered only once it is accepted, so a
// refused submission never reaches the store and its scratch directory
// goes with the request.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	class, err := sched.ParseClass(r.Header.Get("X-Class"))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "X-Class: %v", err)
		return
	}
	// Refuse over-quota tenants before the request does any heavy
	// lifting (saving the upload, building the graph); Submit below
	// remains the authoritative check.
	if err := s.sched.Admit(tenant); err != nil {
		s.metrics.rejected.Add(1)
		writeSchedError(w, err)
		return
	}
	dir, err := os.MkdirTemp(s.dataDir, "job-")
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "creating job dir: %v", err)
		return
	}
	accepted := false
	defer func() {
		if !accepted {
			os.RemoveAll(dir)
		}
	}()
	spec, status, err := s.decodeSubmission(r, dir)
	if err != nil {
		writeSpecError(w, status, err)
		return
	}
	in, status, err := s.resolveInput(r.Context(), tenant, &spec)
	if err != nil {
		switch {
		case status != http.StatusTooManyRequests:
			code := codeForStatus(status)
			if status == http.StatusConflict {
				code = codeUnknownBase
			}
			writeError(w, status, code, "%v", err)
		case r.Context().Err() == nil: // else the client is gone
			s.metrics.rejected.Add(1)
			writeSchedError(w, err)
		}
		return
	}
	var fp string
	if s.cache != nil {
		fp = in.fp.String()
	}
	j := job.New(spec, dir, job.Input{Tenant: tenant, Fingerprint: fp})
	snap, err := s.schedule(j, in, tenant, class)
	if err != nil {
		s.metrics.rejected.Add(1)
		writeSchedError(w, err)
		return
	}
	accepted = true
	s.jobs.Add(j)
	s.metrics.submitted.Add(1)
	writeJSON(w, http.StatusAccepted, snap)
}

// input is a submission's resolved input.  The graph and replay record
// ride the scheduled task to the worker rather than the job, so nothing
// has to drop them when the job ends or coalesces.
type input struct {
	// fp is the content address; it is computed only with a result cache.
	fp sched.Fingerprint
	// graph is the prebuilt input graph, or nil when the worker builds
	// or pages it (and for graphless kinds).
	graph *graph.Graph
	// replay is a delta job's base replay record.
	replay []byte
}

// resolveInput is the submission's input stage.  Without a result cache
// nothing is built here: the worker builds the graph.  With one, the
// scheduler needs the input's content address before queueing, so a
// delta's patched graph is applied, an upload that solves paged or is
// too big to keep is fingerprinted straight off its file, and any other
// graph is built — each under one build slot, bounded like the workers,
// so a submission burst cannot materialise arbitrarily many graphs at
// once.  Graphless kinds fingerprint straight from their spec.  Error
// statuses: 409 when a delta base has no retained state, 429 when build
// capacity is saturated (or the client left), 400 otherwise.
func (s *Server) resolveInput(ctx context.Context, tenant string, spec *job.Spec) (input, int, error) {
	var base *sched.DeltaEntry
	if spec.IsDelta() {
		var status int
		var err error
		if base, status, err = s.deltaBase(*spec); err != nil {
			return input{}, status, err
		}
	}
	if s.cache == nil {
		return input{}, 0, nil
	}
	if !jobkind.MustGet(spec.Kind).NeedsGraph() { // canonical since Validate
		return input{fp: sched.FingerprintGraph(nil, spec.FingerprintOptions())}, 0, nil
	}
	if err := s.acquireBuildSlot(ctx, tenant); err != nil {
		return input{}, http.StatusTooManyRequests, err
	}
	defer func() { <-s.buildSem }()
	switch {
	case base != nil:
		g, err := base.Apply(spec.Diff.Add, spec.Diff.Remove)
		if err != nil {
			return input{}, http.StatusBadRequest, err
		}
		// The patched graph must still be solvable.  Checking here gives
		// the client — at submit time — exactly the error a full
		// submission of the patched graph would fail with at run time.
		if err := verify.EulerianInput(g); err != nil {
			return input{}, http.StatusBadRequest, err
		}
		// The base's engine options are part of its fingerprint, so the
		// patched job solves under the same ones.  Its graph rides along
		// regardless of size: it cannot be rebuilt from the spec.
		spec.Parts, spec.Mode, spec.Seed = base.Opts.Parts, base.Opts.Mode, base.Opts.Seed
		return input{fp: sched.FingerprintGraph(g, spec.FingerprintOptions()), graph: g, replay: base.State}, 0, nil
	case s.pagedInput(*spec) || (spec.Uploaded && spec.DeclaredEdges > keepGraphMaxEdges):
		fp, err := sched.FingerprintUpload(spec.GraphFile, spec.FingerprintOptions())
		if err != nil {
			return input{}, http.StatusBadRequest, fmt.Errorf("fingerprinting uploaded graph: %v", err)
		}
		return input{fp: fp}, 0, nil
	}
	g, err := spec.BuildGraph()
	if err != nil {
		return input{}, http.StatusBadRequest, fmt.Errorf("building input graph: %v", err)
	}
	in := input{fp: sched.FingerprintGraph(g, spec.FingerprintOptions())}
	// Small graphs ride to the worker; big ones are rebuilt there, so a
	// deep queue pins at most quota × keepGraphMaxEdges of graph memory,
	// not quota × upload cap.
	if g.NumEdges() <= keepGraphMaxEdges {
		in.graph = g
	}
	return in, 0, nil
}

// deltaBase looks up a delta submission's retained base run: 409 when
// the base has no retained state (including when retention is off
// entirely), 400 for a malformed base or another kind's.
func (s *Server) deltaBase(spec job.Spec) (*sched.DeltaEntry, int, error) {
	if s.cache == nil || s.deltas == nil {
		return nil, http.StatusConflict,
			fmt.Errorf("no retained state for base %q: delta retention is disabled on this server; submit the full graph instead", spec.Base)
	}
	fp, err := sched.ParseFingerprint(spec.Base)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("base: %v", err)
	}
	entry, ok := s.deltas.Get(fp)
	if !ok {
		return nil, http.StatusConflict,
			fmt.Errorf("no retained state for base %s; submit the full graph instead", spec.Base)
	}
	if entry.Opts.Kind != spec.Kind {
		return nil, http.StatusBadRequest,
			fmt.Errorf("base %s is a %s job, not %s", spec.Base, entry.Opts.Kind, spec.Kind)
	}
	return entry, 0, nil
}

// schedule routes j through the result cache and enqueues it when it
// leads.  A hit completes j at once; a coalesced job completes from the
// leader's commit without consuming queue quota or a worker.  It returns
// the snapshot to accept j with — a leader's is taken before it is
// enqueued, so it answers queued however fast a worker finishes it — or
// the scheduler refusal to answer with.
func (s *Server) schedule(j *job.Job, in input, tenant string, class sched.Class) (job.Snapshot, error) {
	var lease *sched.Lease
	if s.cache != nil {
		// A coalesced duplicate keeps no graph — N of them must not pin N
		// copies while one leader computes; a promoted one rebuilds from
		// its spec.  A delta keeps its own: its spec holds a diff, not an
		// input.
		follow := in
		if !j.Spec.IsDelta() {
			follow.graph = nil
		}
		outcome, reader, l := s.cache.Acquire(in.fp, &sched.Follower{OnReady: s.followerReady(j, follow, tenant, class)})
		switch outcome {
		case sched.OutcomeHit:
			s.metrics.kind(j.Spec.Kind).cacheHits.Add(1)
			s.finishCached(j, reader)
			return j.Snapshot(), nil
		case sched.OutcomeCoalesced:
			return j.Snapshot(), nil
		case sched.OutcomeOverflow:
			// Followers bypass queue quotas, so without this bound an
			// identical-spec flood would accumulate jobs without limit.
			return job.Snapshot{}, &sched.Rejected{
				Tenant:     tenant,
				Reason:     "too many identical submissions waiting on one execution",
				RetryAfter: time.Second,
			}
		}
		lease = l // OutcomeLead; OutcomeBypass runs without a lease
	}
	snap := j.Snapshot()
	err := s.sched.Submit(tenant, class, func(ctx context.Context) { s.runJob(ctx, j, lease, in) })
	if err != nil {
		if lease != nil {
			lease.Abort()
		}
		return snap, err
	}
	s.metrics.observeDepth(int64(s.sched.Depth()))
	return snap, nil
}

// acquireBuildSlot takes a submission-time graph-build slot, waiting at
// most buildSlotWait: a saturated pool yields a sched.Rejected (429)
// instead of parking the handler; a departed client yields ctx.Err().
func (s *Server) acquireBuildSlot(ctx context.Context, tenant string) error {
	select {
	case s.buildSem <- struct{}{}:
		return nil
	case <-time.After(buildSlotWait):
		return &sched.Rejected{Tenant: tenant, Reason: "graph-build capacity saturated", RetryAfter: time.Second}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// finishCached completes j from a cached circuit and counts it, unless
// the job was cancelled first (the cancel did the counting).
func (s *Server) finishCached(j *job.Job, r *sched.Reader) {
	if j.FinishCached(r) {
		s.metrics.completed.Add(1)
		s.metrics.kind(j.Spec.Kind).completed.Add(1)
		s.metrics.steps.Add(r.Steps())
	}
}

// followerReady builds the callback a coalesced job hands the cache:
// it fires with the leader's circuit on commit, or with a fresh lease
// when the leader aborted and this job is promoted to execute instead.
func (s *Server) followerReady(j *job.Job, in input, tenant string, class sched.Class) func(*sched.Reader, *sched.Lease) {
	return func(r *sched.Reader, promoted *sched.Lease) {
		if r != nil {
			s.finishCached(j, r)
			return
		}
		// Resubmit, not Submit: this job was already accepted (202)
		// when it attached as a follower, so tenant back-pressure at
		// promotion time must not convert it into a failure.  Only a
		// draining scheduler can refuse.
		err := s.sched.Resubmit(tenant, class, func(ctx context.Context) { s.runJob(ctx, j, promoted, in) })
		if err != nil {
			promoted.Abort()
			if !j.State().Terminal() {
				s.failJob(j, fmt.Errorf("re-queueing after coalesced leader aborted: %w", err))
			}
		}
	}
}

// failJob records a failed run, counted as a cancellation when the
// job's context was cancelled.
func (s *Server) failJob(j *job.Job, err error) {
	if j.Fail(err) == job.StateCancelled {
		s.metrics.cancelled.Add(1)
	} else {
		s.metrics.failed.Add(1)
	}
}

// parseDiffPairs parses a query-form edge list: comma-separated "u-v"
// pairs, e.g. "1-2,7-3".
func parseDiffPairs(param, s string) ([][2]int64, error) {
	if s == "" {
		return nil, nil
	}
	var pairs [][2]int64
	for _, item := range strings.Split(s, ",") {
		u, v, ok := strings.Cut(item, "-")
		if !ok {
			return nil, fmt.Errorf("%s: %q is not a u-v edge pair", param, item)
		}
		uu, err1 := strconv.ParseInt(u, 10, 64)
		vv, err2 := strconv.ParseInt(v, 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: %q is not a u-v edge pair", param, item)
		}
		pairs = append(pairs, [2]int64{uu, vv})
	}
	return pairs, nil
}

// decodeSubmission parses the request into a validated Spec, writing
// uploaded graph bodies into dir.
func (s *Server) decodeSubmission(r *http.Request, dir string) (job.Spec, int, error) {
	var spec job.Spec
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mediaType == "application/json" {
		if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20)).Decode(&spec); err != nil {
			return spec, http.StatusBadRequest, fmt.Errorf("decoding spec: %v", err)
		}
	} else if base := r.URL.Query().Get("base"); base != "" {
		// Query-form delta: no body, the base fingerprint and the edge
		// diff ride entirely in the query string.
		q := r.URL.Query()
		spec.Kind = q.Get("kind")
		spec.Base = base
		add, err := parseDiffPairs("add", q.Get("add"))
		if err != nil {
			return spec, http.StatusBadRequest, err
		}
		remove, err := parseDiffPairs("remove", q.Get("remove"))
		if err != nil {
			return spec, http.StatusBadRequest, err
		}
		if add != nil || remove != nil {
			spec.Diff = &job.DiffSpec{Add: add, Remove: remove}
		}
	} else {
		// Anything else is an EULGRPH1 upload; the workload kind and
		// engine options ride in the query string.
		q := r.URL.Query()
		spec.Kind = q.Get("kind")
		if v := q.Get("parts"); v != "" {
			parts, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return spec, http.StatusBadRequest, fmt.Errorf("parts: %v", err)
			}
			spec.Parts = int32(parts)
		}
		if v := q.Get("seed"); v != "" {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, http.StatusBadRequest, fmt.Errorf("seed: %v", err)
			}
			spec.Seed = seed
		}
		spec.Mode = q.Get("mode")
		path := filepath.Join(dir, "graph.bin")
		edges, err := saveUpload(path, http.MaxBytesReader(nil, r.Body, s.maxUploadBytes))
		if err != nil {
			var tl *errTooLarge
			if errors.As(err, &tl) {
				return spec, http.StatusRequestEntityTooLarge, err
			}
			return spec, http.StatusBadRequest, err
		}
		spec.Uploaded = true
		spec.GraphFile = path
		spec.DeclaredEdges = edges
	}
	if err := spec.Validate(); err != nil {
		return spec, http.StatusBadRequest, err
	}
	return spec, 0, nil
}

// saveUpload streams an uploaded graph body to path through the
// EULGRPH1 scanner — the body is never resident, and every record is
// checked as it is saved — and returns the header's declared edge count.
// It bounds the declared vertex/edge counts before decoding any record
// (so a 20-byte body cannot demand a terabyte graph at run time), and
// classifies over-cap counts and over-limit bodies as errTooLarge so the
// handler answers 413 rather than a generic 400.
func saveUpload(path string, body io.Reader) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("saving upload: %v", err)
	}
	edges, err := scanUpload(io.TeeReader(body, f))
	if closeErr := f.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("saving upload: %v", closeErr)
	}
	return edges, err
}

// scanUpload decodes an upload body to its end and returns its declared
// edge count, or the refusal to answer with.
func scanUpload(body io.Reader) (int64, error) {
	sc, err := graph.NewScanner(body, graph.DefaultBlockSize)
	if err == nil {
		if err := job.ValidateUploadCounts(uint64(sc.NumVertices()), uint64(sc.NumEdges())); err != nil {
			return 0, &errTooLarge{msg: err.Error()}
		}
		err = sc.ForEachEdge(func(graph.Edge) error { return nil })
	}
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return sc.NumEdges(), nil
	case errors.As(err, &mbe):
		return 0, &errTooLarge{msg: fmt.Sprintf("upload body exceeds the %d-byte limit", mbe.Limit)}
	case errors.Is(err, graph.ErrBadFormat):
		return 0, fmt.Errorf("upload is not a valid EULGRPH1 graph file: %w", err)
	}
	return 0, fmt.Errorf("saving upload: %v", err)
}

// pagedInput reports whether a job solves from a paged disk CSR instead
// of an in-memory graph: a local, non-delta euler upload whose estimated
// in-memory solve (DeclaredEdges × inMemoryBytesPerEdge) exceeds the
// process memory limit.  With GOMEMLIMIT unset nothing pages.  Only the
// in-process solver can page: a cluster coordinator ships CSR slices to
// its workers, which needs the in-memory graph.
func (s *Server) pagedInput(spec job.Spec) bool {
	return s.local && spec.Kind == jobkind.DefaultName && spec.Uploaded && !spec.IsDelta() &&
		spec.DeclaredEdges > s.memLimit/inMemoryBytesPerEdge
}

// pageBytes is a paged solve's resident page budget: a quarter of the
// memory limit, at most 64 MiB.
func (s *Server) pageBytes() int64 { return min(64<<20, s.memLimit/4) }

// runJob executes one job on a pool worker in stages: start it, solve
// it from its input into a disk-backed sink, and publish the result.
// The job's result-cache lease is committed on publication and aborted —
// promoting a waiting duplicate — on any other exit.
func (s *Server) runJob(poolCtx context.Context, j *job.Job, lease *sched.Lease, in input) {
	// A pool drain deadline cancels the job's own context so the
	// streaming emit path aborts promptly.
	stop := context.AfterFunc(poolCtx, func() { j.Cancel() })
	defer stop()
	defer func() {
		if lease != nil {
			lease.Abort()
		}
	}()
	if !j.Start() {
		return // cancelled while queued; the slot goes straight back to the pool
	}
	runStart := time.Now()
	s.metrics.started.Add(1)
	s.metrics.kind(j.Spec.Kind).started.Add(1)
	s.metrics.queueWaitNanos.Add(runStart.Sub(j.Snapshot().Created).Nanoseconds())
	defer func() { s.metrics.execNanos.Add(time.Since(runStart).Nanoseconds()) }()
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	out, err := s.solveJob(j, in)
	if err != nil {
		s.failJob(j, err)
		return
	}
	s.publish(j, lease, in, out)
	lease = nil
}

// solved is a successful solve awaiting publication.
type solved struct {
	sink   *job.CircuitSink
	report *euler.RunReport
	// graph is the in-memory input, and retained its encoded replay
	// record when the run retained one as a delta base.
	graph    *graph.Graph
	retained []byte
}

// solveJob opens the job's input and streams its circuit into a fresh
// sink.  On any error, a panic included, the sink is closed; on success
// it passes to publish.
func (s *Server) solveJob(j *job.Job, in input) (out solved, err error) {
	defer func() {
		// A generator or engine panic must fail the job, not the server.
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
		if err != nil && out.sink != nil {
			out.sink.Close()
		}
	}()
	kind := jobkind.MustGet(j.Spec.Kind) // canonical since Validate
	ctx := j.Context()

	// One spec says how this job solves.  In-process euler runs retain
	// replay state when delta retention is on, so this job's result can
	// serve as a delta base, and delta jobs replay their base's retained
	// state.  Cluster runs never retain: the engine state lives on the
	// workers, not the coordinator.  Paged runs never retain either — a
	// delta base pins the full edge list in memory, exactly what that
	// path exists to avoid — and spill to the job directory.
	spec, err := j.Spec.KindRequest().Options.SolveSpec()
	if err != nil {
		return out, err
	}

	// The job's input, resolved once.  A paged upload never materialises
	// its CSR in heap: the on-disk file is scattered into a paged CSR
	// whose resident pages fit pageBytes, and euler.Solve runs it semi-
	// externally.  Small cached-path graphs and delta graphs arrive
	// prebuilt from submission; everything else (no cache, big graphs,
	// promoted followers) is built here on the worker, bounded by the
	// pool.  Graphless kinds carry their whole input in the spec.
	var src graph.Source
	g := in.graph
	switch {
	case s.pagedInput(j.Spec):
		pg, err := oocgraph.BuildPaged(j.Spec.GraphFile, oocgraph.BuildOptions{Dir: j.Dir, MemBytes: s.pageBytes()})
		if err != nil {
			return out, fmt.Errorf("building paged graph: %w", err)
		}
		defer pg.Close()
		src, spec.SpillDir = pg, j.Dir
	case g != nil:
		src = g
	case kind.NeedsGraph():
		if g, err = j.Spec.BuildGraph(); err != nil {
			return out, fmt.Errorf("building input graph: %w", err)
		}
		src = g
	}
	if j.Spec.Uploaded && j.Spec.Kind == jobkind.DefaultName {
		// Generated inputs are Eulerian by construction; uploads get
		// the explicit precondition check for a clear client error.
		// (Postman uploads are allowed odd degrees — covering them is
		// the job — and the kind reports imbalance itself if any.)
		if err := verify.EulerianInput(src); err != nil {
			return out, err
		}
	}
	spec.Retain = s.local && g != nil && s.cache != nil && s.deltas != nil && kind.Name() == jobkind.DefaultName
	if spec.Retain && in.replay != nil {
		if spec.Replay, err = euler.DecodeRunRecord(in.replay); err != nil {
			return out, fmt.Errorf("decoding retained record: %w", err)
		}
	}

	// The sink renders each step in the kind's line format as it
	// arrives, so the stored frames are exactly the bytes the circuit
	// endpoint serves (and the result cache copies them frame-for-frame).
	if out.sink, err = job.NewCircuitSink(filepath.Join(j.Dir, "circuit.log"), kind); err != nil {
		return out, fmt.Errorf("creating circuit sink: %w", err)
	}

	// The kind drives the solve; graph-backed kinds route their circuit
	// runs through the server's solver, sequence kinds solve in-process
	// from the spec, and both observe ctx before every emitted step.  A
	// kind hands run the graph it holds (nil for a paged input, which
	// then solves from src) or one it derived from it, such as postman's
	// augmented graph; run keeps the engine report and retained record.
	run := func(rg *graph.Graph, emit func(graph.Step) error) error {
		from := src
		if rg != nil {
			from = rg
		}
		r, record, err := s.solve(ctx, from, spec, emit)
		out.report = r
		if record != nil {
			out.retained = euler.EncodeRunRecord(record)
		}
		return err
	}
	if err := kind.Solve(ctx, j.Spec.KindRequest(), g, run, out.sink.Append); err != nil {
		return out, err
	}
	if err := out.sink.Finish(); err != nil {
		return out, fmt.Errorf("persisting circuit: %w", err)
	}
	out.graph = g
	return out, nil
}

// publish completes j with a successful solve: the circuit goes under
// its content address first (completing any coalesced duplicates), then
// to the job, and the run is retained as a delta base if it recorded
// one.
func (s *Server) publish(j *job.Job, lease *sched.Lease, in input, out solved) {
	if lease != nil {
		// This must happen BEFORE j.Finish: once the job is terminal it is
		// eligible for retention eviction, which would close the sink
		// under Commit's read.  A commit error only degrades the cache
		// (the lease aborts internally, promoting a waiter); this job's
		// own result still lands below.
		lease.Commit(out.sink)
	}
	j.Finish(out.report, out.sink)
	s.metrics.completed.Add(1)
	s.metrics.kind(j.Spec.Kind).completed.Add(1)
	s.metrics.steps.Add(out.sink.Steps())
	s.metrics.addReport(out.report)
	if j.Spec.IsDelta() {
		s.metrics.deltaJobs.Add(1)
		if out.report != nil {
			s.metrics.deltaReusedParts.Add(int64(out.report.ReusedParts))
		}
	}
	// The store's LRU budget decides how long a retained base survives.
	if out.retained != nil {
		s.deltas.Put(in.fp, &sched.DeltaEntry{
			Opts:        j.Spec.FingerprintOptions(),
			NumVertices: out.graph.NumVertices(),
			Edges:       sched.EdgePairs(out.graph),
			State:       out.retained,
		})
	}
}

// pageTokenPrefix versions the list endpoint's pagination tokens.  The
// token encodes the last-seen creation sequence number, but clients
// must treat it as opaque: the encoding may change between versions.
const pageTokenPrefix = "jt1:"

func encodePageToken(seq int64) string {
	return base64.RawURLEncoding.EncodeToString([]byte(pageTokenPrefix + strconv.FormatInt(seq, 10)))
}

func decodePageToken(tok string) (int64, error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err == nil {
		if rest, ok := strings.CutPrefix(string(raw), pageTokenPrefix); ok {
			if seq, perr := strconv.ParseInt(rest, 10, 64); perr == nil && seq >= 0 {
				return seq, nil
			}
		}
	}
	return 0, fmt.Errorf("invalid page_token %q", tok)
}

// handleList returns the retained jobs, oldest first, filtered by any
// of ?kind=, ?state=, and ?tenant=, and paginated with ?limit= plus the
// opaque ?page_token= from the previous page's next_page_token.  Tokens
// encode the creation order, so a page walk is stable under concurrent
// submissions and retention evictions (new jobs only appear after the
// cursor; evicted jobs just leave gaps).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	jobs := s.jobs.List()
	if want := q.Get("kind"); want != "" {
		k, err := jobkind.Get(want)
		if err != nil {
			writeSpecError(w, http.StatusBadRequest, err)
			return
		}
		kept := jobs[:0]
		for _, snap := range jobs {
			if snap.Spec.Kind == k.Name() {
				kept = append(kept, snap)
			}
		}
		jobs = kept
	}
	if want := q.Get("state"); want != "" {
		switch job.State(want) {
		case job.StateQueued, job.StateRunning, job.StateDone, job.StateFailed, job.StateCancelled:
		default:
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"unknown state %q (want queued, running, done, failed, or cancelled)", want)
			return
		}
		kept := jobs[:0]
		for _, snap := range jobs {
			if snap.State == job.State(want) {
				kept = append(kept, snap)
			}
		}
		jobs = kept
	}
	if want := q.Get("tenant"); want != "" {
		kept := jobs[:0]
		for _, snap := range jobs {
			if snap.Tenant == want {
				kept = append(kept, snap)
			}
		}
		jobs = kept
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	if tok := q.Get("page_token"); tok != "" {
		after, err := decodePageToken(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		kept := jobs[:0]
		for _, snap := range jobs {
			if snap.Seq > after {
				kept = append(kept, snap)
			}
		}
		jobs = kept
	}
	resp := map[string]any{}
	if limit > 0 && len(jobs) > limit {
		jobs = jobs[:limit]
		resp["next_page_token"] = encodePageToken(jobs[limit-1].Seq)
	}
	resp["jobs"] = jobs
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleCircuit streams a finished job's result as NDJSON in the job
// kind's line format — {"edge":e,"from":u,"to":v} circuit steps for
// euler (plus "revisit" markers for postman tours), {"sym":s} and
// {"base":"A"} for the sequence kinds.  The job's sink and the result
// cache both store the circuit as frames already rendered in that
// format, so the response body is a straight copy of the stored
// frames.  Bytes served are accounted per job and in the egress_bytes
// service counter.
func (s *Server) handleCircuit(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	src, release, ok := j.Circuit()
	if !ok {
		writeError(w, http.StatusConflict, codeWrongState, "job is %s, circuit available only when done", j.State())
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Circuit-Steps", strconv.FormatInt(src.Steps(), 10))
	cw := &countedWriter{w: w}
	defer func() {
		j.AddEgress(cw.n)
		s.metrics.egressBytes.Add(cw.n)
	}()
	bw := bufio.NewWriterSize(cw, 1<<16)
	err := src.IterateBatches(func(frame []byte) error {
		_, werr := bw.Write(frame)
		return werr
	})
	if err != nil {
		if cw.n == 0 {
			// Nothing reached the client yet; a real error status can
			// still go out.
			writeError(w, http.StatusInternalServerError, codeInternal, "streaming circuit: %v", err)
			return
		}
		// Mid-stream failure: the status is gone, cut the body short.
		return
	}
	bw.Flush()
}

// countedWriter tracks whether any bytes reached the underlying
// ResponseWriter, i.e. whether the status line has been committed.
type countedWriter struct {
	w io.Writer
	n int64
}

func (c *countedWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no such job")
		return
	}
	state, transitioned := j.Cancel()
	if transitioned {
		s.metrics.cancelled.Add(1)
	}
	switch state {
	case job.StateCancelled:
		writeJSON(w, http.StatusOK, j.Snapshot())
	case job.StateRunning:
		// Cancellation requested; the worker observes it at the next
		// emitted step.
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	default:
		writeError(w, http.StatusConflict, codeWrongState, "job already %s", state)
	}
}

// handleCluster reports cluster topology: role, joined nodes, epoch, and
// job counters on a coordinator; {"role": "standalone"} otherwise.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, map[string]any{"role": "standalone"})
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.ClusterStatus())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.sched.Depth(),
		"running":     s.sched.Running(),
		"workers":     s.sched.Workers(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
