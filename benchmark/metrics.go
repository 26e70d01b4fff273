package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric the benchmark prints.  BENCHMARK.json lists
// the same names, units and directions (a test keeps the two in step);
// Bound is only meaningful for end-to-end metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is printed by every workload with --trace 0.  The operation
// behind solve_s is one complete solve through the public facade for the
// library workloads, and for serve-mixed one served job that had to be
// solved (POST sent to last circuit byte read; jobs answered from the
// result cache are in edges_per_s and in service.hit_latency_p50_ms).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "solve_s", Unit: "s", Better: "lower"},
	{Name: "edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower"},
}

// perLayer is printed by every workload with --trace 1; a layer that does
// no work in a workload reports 0 there, which is the point of having
// workloads that bypass it.  The README's table says which end-to-end
// metric each one should move, on which workload.
var perLayer = []metricDef{
	{Name: "partition.ldg_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.edge_cut_ratio", Unit: "ratio", Better: "lower"},
	{Name: "partition.max_part_ratio", Unit: "ratio", Better: "lower"},

	{Name: "euler.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.bsp_wall_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.copy_src_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.copy_sink_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.create_obj_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.phase1_skew", Unit: "ratio", Better: "lower"},
	{Name: "euler.unroll_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.state_longs_peak", Unit: "count", Better: "lower"},
	{Name: "euler.retain_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.record_bytes", Unit: "bytes", Better: "lower"},
	{Name: "euler.record_codec_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.reused_parts_ratio", Unit: "ratio", Better: "higher"},
	{Name: "euler.scratch_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "euler.delta_exec_ratio", Unit: "ratio", Better: "lower"},
	{Name: "euler.rmat_reused_parts_ratio", Unit: "ratio", Better: "higher"},
	{Name: "euler.unaccounted_pct", Unit: "%", Better: "lower"},

	{Name: "bsp.supersteps", Unit: "count", Better: "lower"},
	{Name: "bsp.messages", Unit: "count", Better: "lower"},
	{Name: "bsp.bytes", Unit: "bytes", Better: "lower"},
	{Name: "bsp.critical_path_ms", Unit: "ms", Better: "lower"},
	{Name: "bsp.barrier_ms", Unit: "ms", Better: "lower"},
	{Name: "bsp.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "bsp.wire_bytes", Unit: "bytes", Better: "lower"},

	{Name: "cluster.inprocess_solve_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.attempts", Unit: "count", Better: "lower"},

	{Name: "oocgraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "oocgraph.page_faults", Unit: "count", Better: "lower"},
	{Name: "oocgraph.faults_per_kedge", Unit: "1/kedge", Better: "lower"},
	{Name: "oocgraph.adj_ms", Unit: "ms", Better: "lower"},

	{Name: "spill.put_ms", Unit: "ms", Better: "lower"},
	{Name: "spill.get_ms", Unit: "ms", Better: "lower"},
	{Name: "spill.puts", Unit: "count", Better: "lower"},
	{Name: "spill.gets", Unit: "count", Better: "lower"},
	{Name: "spill.bytes_written", Unit: "bytes", Better: "lower"},

	{Name: "graph.read_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.encode_steps_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.decode_steps_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.bytes_per_step", Unit: "bytes", Better: "lower"},

	{Name: "sched.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.coalesced_jobs", Unit: "count", Better: "lower"},

	{Name: "service.jobs", Unit: "count", Better: "higher"},
	{Name: "service.jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "service.job_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.job_latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.exec_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.poll_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.egress_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.egress_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "service.egress_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "service.hit_latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.miss_latency_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "jobkind.euler_exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobkind.postman_exec_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobkind.debruijn_exec_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "seq.hierholzer_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.speedup", Unit: "ratio", Better: "higher"},
	{Name: "verify.circuit_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.num_gc", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as the last line of its standard
// output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches each definition's unit to its measured value; a
// metric the run did not measure is reported as 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// bounds maps each end-to-end metric of BENCHMARK.json to its definition.
func (bf *benchmarkFile) bounds() map[string]metricDef {
	out := make(map[string]metricDef, len(bf.EndToEnd))
	for _, d := range bf.EndToEnd {
		out[d.Name] = d
	}
	return out
}
