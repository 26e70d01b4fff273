package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/jobkind"
	"repro/internal/service/job"
)

// Client is a synthetic eulerd client: the load runner's view of one
// server's HTTP API.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil means a dedicated client with sane
	// timeouts for polling (streams use no per-request timeout).
	HTTP *http.Client
}

// NewClient returns a Client for the server root URL.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{Timeout: 30 * time.Second}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a non-2xx server answer with its structured error body
// decoded, so callers can distinguish admission throttling (429 +
// Retry-After) from hard failures.
type APIError struct {
	Status     int
	Code       string // "throttled", "draining", or "" for plain errors
	Msg        string
	Tenant     string
	RetryAfter time.Duration // from the Retry-After header / body hint
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server answered %d (%s, retry after %s): %s", e.Status, e.Code, e.RetryAfter, e.Msg)
	}
	return fmt.Sprintf("server answered %d: %s", e.Status, e.Msg)
}

// Throttled reports whether err is an admission-control 429.
func Throttled(err error) (*APIError, bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		return apiErr, true
	}
	return nil, false
}

// decodeInto performs req and decodes a JSON body, surfacing the
// server's structured error payload as *APIError on non-2xx statuses.
func (c *Client) decodeInto(req *http.Request, out any) error {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Msg: resp.Status}
		var e struct {
			Error             string `json:"error"`
			Code              string `json:"code"`
			Tenant            string `json:"tenant"`
			RetryAfterSeconds int    `json:"retry_after_seconds"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			apiErr.Msg = e.Error
			apiErr.Code = e.Code
			apiErr.Tenant = e.Tenant
			apiErr.RetryAfter = time.Duration(e.RetryAfterSeconds) * time.Second
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// SubmitOpts carries the identity headers of a submission.
type SubmitOpts struct {
	// Tenant is sent as X-Tenant (empty omits the header: the server's
	// default tenant).
	Tenant string
	// Class is sent as X-Class ("interactive" or "batch"; empty omits
	// the header: batch).
	Class string
}

func (o SubmitOpts) apply(req *http.Request) {
	if o.Tenant != "" {
		req.Header.Set("X-Tenant", o.Tenant)
	}
	if o.Class != "" {
		req.Header.Set("X-Class", o.Class)
	}
}

// SubmitSpec submits a generator job as a JSON spec.
func (c *Client) SubmitSpec(spec job.Spec) (job.Snapshot, error) {
	return c.SubmitSpecAs(spec, SubmitOpts{})
}

// SubmitSpecAs submits a generator job under the given tenant/class.
func (c *Client) SubmitSpecAs(spec job.Spec, opts SubmitOpts) (job.Snapshot, error) {
	var snap job.Snapshot
	body, err := json.Marshal(spec)
	if err != nil {
		return snap, err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return snap, err
	}
	req.Header.Set("Content-Type", "application/json")
	opts.apply(req)
	err = c.decodeInto(req, &snap)
	return snap, err
}

// SubmitDelta submits an edge diff against a retained base fingerprint.
// The server patches the base graph it retained for base and re-tours
// only the partitions the diff touches.
func (c *Client) SubmitDelta(base string, add, remove [][2]int64, opts SubmitOpts) (job.Snapshot, error) {
	spec := job.Spec{Base: base}
	if len(add)+len(remove) > 0 {
		spec.Diff = &job.DiffSpec{Add: add, Remove: remove}
	}
	return c.SubmitSpecAs(spec, opts)
}

// SubmitUpload submits g as an EULGRPH1 body, carrying the spec's engine
// options (parts, seed, mode) in the query string.
func (c *Client) SubmitUpload(g *graph.Graph, spec job.Spec) (job.Snapshot, error) {
	return c.SubmitUploadAs(g, spec, SubmitOpts{})
}

// SubmitUploadAs is SubmitUpload under the given tenant/class.
func (c *Client) SubmitUploadAs(g *graph.Graph, spec job.Spec, opts SubmitOpts) (job.Snapshot, error) {
	var snap job.Snapshot
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		return snap, err
	}
	q := url.Values{}
	if spec.Kind != "" {
		q.Set("kind", spec.Kind)
	}
	if spec.Parts > 0 {
		q.Set("parts", strconv.FormatInt(int64(spec.Parts), 10))
	}
	if spec.Seed != 0 {
		q.Set("seed", strconv.FormatInt(spec.Seed, 10))
	}
	if spec.Mode != "" {
		q.Set("mode", spec.Mode)
	}
	u := c.Base + "/v1/jobs"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(buf.Bytes()))
	if err != nil {
		return snap, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	opts.apply(req)
	err = c.decodeInto(req, &snap)
	return snap, err
}

// Job fetches one job's snapshot.
func (c *Client) Job(id string) (job.Snapshot, error) {
	var snap job.Snapshot
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return snap, err
	}
	err = c.decodeInto(req, &snap)
	return snap, err
}

// Cancel requests job cancellation (DELETE).
func (c *Client) Cancel(id string) (job.Snapshot, error) {
	var snap job.Snapshot
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/v1/jobs/"+id, nil)
	if err != nil {
		return snap, err
	}
	err = c.decodeInto(req, &snap)
	return snap, err
}

// WaitTerminal polls the job until it reaches a terminal state.
func (c *Client) WaitTerminal(ctx context.Context, id string, poll time.Duration) (job.Snapshot, error) {
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	for {
		snap, err := c.Job(id)
		if err != nil {
			return snap, err
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		select {
		case <-ctx.Done():
			return snap, fmt.Errorf("waiting for job %s (state %s): %w", id, snap.State, ctx.Err())
		case <-time.After(poll):
		}
	}
}

// WaitState polls until the job reaches want or any terminal state,
// returning the snapshot either way.
func (c *Client) WaitState(ctx context.Context, id string, want job.State, poll time.Duration) (job.Snapshot, error) {
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	for {
		snap, err := c.Job(id)
		if err != nil {
			return snap, err
		}
		if snap.State == want || snap.State.Terminal() {
			return snap, nil
		}
		select {
		case <-ctx.Done():
			return snap, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// CircuitRaw streams the job's full circuit and returns the raw NDJSON
// bytes (the byte-identity diffs compare these directly).
func (c *Client) CircuitRaw(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.circuitGet(ctx, id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ParseCircuit parses an NDJSON circuit stream into steps.
func ParseCircuit(data []byte) ([]graph.Step, error) {
	return ParseResult(jobkind.DefaultName, data)
}

// ParseResult parses a result stream through the named kind's line
// codec, back into the sink-step form its verifier consumes.
func ParseResult(kind string, data []byte) ([]graph.Step, error) {
	k, err := jobkind.Get(kind)
	if err != nil {
		return nil, err
	}
	var steps []graph.Step
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		st, err := k.ParseLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("parsing %s line %d: %w", kind, len(steps), err)
		}
		steps = append(steps, st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return steps, nil
}

// CircuitPartial reads at most maxSteps circuit lines and then abandons
// the response mid-stream — the misbehaving consumer the harness uses to
// exercise the server's aborted-write path.  It returns the lines read.
func (c *Client) CircuitPartial(ctx context.Context, id string, maxSteps int) (int, error) {
	resp, err := c.circuitGet(ctx, id)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<12), 1<<20)
	n := 0
	for n < maxSteps && sc.Scan() {
		n++
	}
	// Returning without draining closes the connection under the
	// server's writer.
	return n, sc.Err()
}

// circuitGet issues the streaming GET without the polling client's
// per-request timeout (large circuits can legitimately outlive it); the
// caller's ctx — the per-job timeout in the runner — bounds it instead,
// so a wedged server cannot hang the harness.
func (c *Client) circuitGet(ctx context.Context, id string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/circuit", nil)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: c.httpClient().Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("GET circuit %s: %s: %s", id, resp.Status, bytes.TrimSpace(body))
	}
	return resp, nil
}

// Healthz reports whether the server answers its liveness probe.
func (c *Client) Healthz() error {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	return c.decodeInto(req, nil)
}

// WaitHealthy polls the liveness probe until it answers.
func (c *Client) WaitHealthy(ctx context.Context) error {
	for {
		if err := c.Healthz(); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server at %s never became healthy: %w", c.Base, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// Metrics scrapes GET /v1/metrics.
func (c *Client) Metrics() (map[string]any, error) {
	var m map[string]any
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	err = c.decodeInto(req, &m)
	return m, err
}

// Cluster scrapes GET /v1/cluster as a raw map, so callers can read
// the coordinator's fault-tolerance counters (jobs_retried, replans,
// degraded_runs, last_error) without a schema dependency.
func (c *Client) Cluster() (map[string]any, error) {
	var m map[string]any
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/cluster", nil)
	if err != nil {
		return nil, err
	}
	err = c.decodeInto(req, &m)
	return m, err
}

// ClusterNodes returns the joined worker-node count from GET
// /v1/cluster (0 for a standalone server).
func (c *Client) ClusterNodes() (int, error) {
	var payload struct {
		Nodes []json.RawMessage `json:"nodes"`
	}
	req, err := http.NewRequest(http.MethodGet, c.Base+"/v1/cluster", nil)
	if err != nil {
		return 0, err
	}
	if err := c.decodeInto(req, &payload); err != nil {
		return 0, err
	}
	return len(payload.Nodes), nil
}

// WaitNodes polls until at least n worker nodes have joined.
func (c *Client) WaitNodes(ctx context.Context, n int) error {
	for {
		joined, err := c.ClusterNodes()
		if err == nil && joined >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster at %s never reached %d nodes: %w", c.Base, n, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TotalAllocBytes scrapes cumulative heap allocation from the expvar
// endpoint; ok is false when /debug/vars is not mounted (in-process test
// servers) or unparsable.
func (c *Client) TotalAllocBytes() (uint64, bool) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/debug/vars", nil)
	if err != nil {
		return 0, false
	}
	var payload struct {
		MemStats struct {
			TotalAlloc uint64 `json:"TotalAlloc"`
		} `json:"memstats"`
	}
	if err := c.decodeInto(req, &payload); err != nil {
		return 0, false
	}
	return payload.MemStats.TotalAlloc, true
}
