#!/usr/bin/env sh
# One solve pipeline: outside the stage-level tools, nothing assembles
# partition -> Run -> Unroll by hand; everything calls euler.Solve.
#
# Fails when a non-test .go file outside internal/euler/, internal/bench/
# and benchmark/ calls euler.Run(, euler.RunOverCluster(,
# .Unroll( or .CollectCircuit( — except internal/cluster/cluster.go, the
# executor euler.Solve delegates Phases 1-2 to, which may call Run and
# RunOverCluster.  Also fails when non-test code under internal/service/
# or internal/sched/ references graph.AppendSteps or graph.DecodeSteps: the
# service stores and serves one result format, NDJSON frames.  Also
# fails when non-test code under cmd/eulerd/ or internal/service/ calls
# sched.NewFair( more than once: the service runs one scheduler.  Also
# fails when a non-test .go file other than ./euler.go calls
# context.TODO(: every solve runs under a caller's context.  Also fails
# when non-test code in internal/euler outside encode.go calls
# newBodyCursor(: Phase 3 walks typed bodies only, and an encoded body is
# decoded once, by appendBodyItems, where it enters.  Then prints the
# three sizes ROADMAP aim 2 tracks per PR, internal/euler's exported
# declaration count, the size ROADMAP item 23 gates on, and
# internal/euler's non-test line count, which ROADMAP item 31 gates on.
set -eu
cd "$(dirname "$0")/.."

files=$(find . -name '*.go' ! -name '*_test.go' \
	! -path './internal/euler/*' ! -path './internal/bench/*' \
	! -path './benchmark/*' ! -path './.bench_build/*')
# shellcheck disable=SC2086
bad=$(grep -nE 'euler\.Run\(|euler\.RunOverCluster\(|\.Unroll\(|\.CollectCircuit\(' $files |
	grep -vE '^\./internal/cluster/cluster\.go:[0-9]+:.*euler\.(Run|RunOverCluster)\(' || true)
if [ -n "$bad" ]; then
	echo "hand-assembled solve pipeline outside euler.Solve:" >&2
	echo "$bad" >&2
	exit 1
fi

# shellcheck disable=SC2046
binary=$(grep -nE 'graph\.(AppendSteps|DecodeSteps)([^A-Za-z0-9_]|$)' $(find internal/service internal/sched \
	-name '*.go' ! -name '*_test.go') || true)
if [ -n "$binary" ]; then
	echo "binary step frames in the serving layer (results are NDJSON frames only):" >&2
	echo "$binary" >&2
	exit 1
fi

# shellcheck disable=SC2046
fair=$(grep -nE 'sched\.NewFair\(' $(find cmd/eulerd internal/service -name '*.go' ! -name '*_test.go') || true)
if [ "$(printf '%s' "$fair" | grep -c .)" -gt 1 ]; then
	echo "more than one scheduler in the service (one sched.NewFair call allowed):" >&2
	echo "$fair" >&2
	exit 1
fi

# shellcheck disable=SC2046
todo=$(grep -nF 'context.TODO(' $(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' ! -path './euler.go') || true)
if [ -n "$todo" ]; then
	echo "context.TODO() outside the root facade (thread the caller's context):" >&2
	echo "$todo" >&2
	exit 1
fi

# shellcheck disable=SC2046
cursor=$(grep -nF 'newBodyCursor(' $(find internal/euler -name '*.go' ! -name '*_test.go' ! -name 'encode.go') || true)
if [ -n "$cursor" ]; then
	echo "encoded body walked outside its decoder (decode with appendBodyItems where it enters):" >&2
	echo "$cursor" >&2
	exit 1
fi

lines=$({ ls ./*.go | grep -v '_test\.go$'
	find internal/euler internal/cluster internal/jobkind internal/postman \
		internal/sched internal/service cmd/eulerd -name '*.go' ! -name '*_test.go'; } | xargs cat | wc -l)
# shellcheck disable=SC2046
exported=$(grep -hcE '^(func|type) [A-Z]|^	[A-Z][A-Za-z0-9_]* += ' $(ls ./*.go | grep -v '_test\.go$') |
	awk '{n += $1} END {print n}')
flags=$(grep -oE 'flag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)\(' \
	cmd/eulerd/main.go | wc -l)
euler_exports=$(go doc -short ./internal/euler | wc -l)
euler_lines=$(find internal/euler -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
echo "one pipeline: ok"
echo "non-test Go lines (root + internal/{euler,cluster,jobkind,postman,sched,service} + cmd/eulerd): $lines"
echo "root package exported identifiers: $exported"
echo "eulerd flags: $flags"
echo "internal/euler exported declarations: $euler_exports"
echo "internal/euler non-test Go lines: $euler_lines"
