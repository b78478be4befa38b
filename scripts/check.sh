#!/bin/sh
# Pre-commit gate: vet, build, race-enabled tests, a smoke run of the
# examples and small tools, then the substrate benchmarks checked against the
# committed baselines in BENCH_substrate.json.
#
# Wall-clock comparisons use a generous tolerance because ns/op moves with
# the host machine; allocations per op are deterministic and enforced
# exactly. Usage: scripts/check.sh [-fast]  (-fast skips the benchmarks).
set -e
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== bench gate self-test =="
scripts/check_selftest.sh

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== smoke: examples and tools =="
# No test executes these programs, and they read machine internals the
# tests reach differently (examples/halo reads m.Fab); run each once and
# require a zero exit with some output.
for prog in examples/accelerated examples/fileserver examples/halo examples/pingpong \
    examples/quickstart examples/redstorm cmd/xt3topo cmd/fwsram; do
    if ! smoke_out=$(go run "./$prog" 2>&1); then
        echo "FAIL: go run ./$prog exited non-zero:"
        echo "$smoke_out"
        exit 1
    fi
    if [ -z "$smoke_out" ]; then
        echo "FAIL: go run ./$prog printed nothing"
        exit 1
    fi
done
echo "check.sh: 8 programs ran"

if [ "$1" = "-fast" ]; then
    echo "check.sh: fast mode, skipping benchmarks"
    exit 0
fi

echo "== substrate benchmarks vs BENCH_substrate.json =="
if ! bench_raw=$(go test -run xxx \
    -bench 'SimulatorEventThroughput$|SimulatorZeroDelayLane|SimulatorEventThroughputDeep|ProcSwitch|SimulatedPut|PingPongTelemetry|PingPongFlightRec' \
    -benchtime 200ms -benchmem . 2>&1); then
    echo "FAIL: benchmark run exited non-zero:"
    echo "$bench_raw"
    exit 1
fi
# The machine-scale workload benchmarks run one whole simulated job per op,
# so they get -benchtime 1x; their baselines live in the same "benchmarks"
# object (with an allocs tolerance band — see BENCH_substrate.json), and
# both runs feed one bench_gate call so the reverse check sees every key.
if ! workload_raw=$(go test -run xxx -bench 'TorusCollective$|HotSpot$' \
    -benchtime 1x -benchmem . 2>&1); then
    echo "FAIL: workload benchmark run exited non-zero:"
    echo "$workload_raw"
    exit 1
fi
out=$(printf '%s\n%s\n' "$bench_raw" "$workload_raw" | grep '^Benchmark' || true)
if [ -z "$out" ]; then
    # An empty result here means the bench pattern rotted or the run was
    # silently broken — not that everything passed.
    echo "FAIL: benchmark run produced no Benchmark lines; output was:"
    echo "$bench_raw"
    echo "$workload_raw"
    exit 1
fi
echo "$out"

# Baseline comparison lives in bench_gate.sh (self-tested above). It fails
# on allocs/op drift, on a gated benchmark with no baseline, and on a
# baseline the gate pattern no longer runs.
tmp_bench=$(mktemp)
echo "$out" >"$tmp_bench"
if ! scripts/bench_gate.sh "$tmp_bench" BENCH_substrate.json; then
    rm -f "$tmp_bench"
    echo "check.sh: substrate benchmark regression"
    exit 1
fi
rm -f "$tmp_bench"

echo "== sharded kernel: 512-node torus halo (BenchmarkTorusHalo*) =="
# Three arms of the identical simulated workload: shards=1 (sequential
# reference), shards=4, and shards=4 with every periodic observer armed.
# Simulated results are bit-identical by
# construction (TestTorusDifferential enforces it); here we gate the
# host-side costs: allocs/op of the sharded arm must stay within 5% of
# sequential always, and on a host with >=4 cores the sharded arm must be
# at least 2x faster in wall-clock. On smaller hosts the kernel runs its
# lanes inline (no parallelism exists to win) and the speedup gate is
# meaningless, so it is skipped with a notice.
if ! halo_raw=$(go test -run xxx -bench 'TorusHalo(Seq|Shard4|Shard4SamplerOn)$' \
    -benchtime 1x -benchmem . 2>&1); then
    echo "FAIL: torus halo benchmark run exited non-zero:"
    echo "$halo_raw"
    exit 1
fi
halo=$(echo "$halo_raw" | grep '^BenchmarkTorusHalo' || true)
echo "$halo"
# Names may or may not carry the -GOMAXPROCS suffix (absent at
# GOMAXPROCS=1), and Shard4 is a prefix of Shard4SamplerOn, so each arm
# is matched by exact name with an optional suffix.
seq_ns=$(echo "$halo" | awk '$1 ~ /^BenchmarkTorusHaloSeq(-[0-9]+)?$/ {print $3}')
seq_allocs=$(echo "$halo" | awk '$1 ~ /^BenchmarkTorusHaloSeq(-[0-9]+)?$/ {print $(NF-1)}')
par_ns=$(echo "$halo" | awk '$1 ~ /^BenchmarkTorusHaloShard4(-[0-9]+)?$/ {print $3}')
par_allocs=$(echo "$halo" | awk '$1 ~ /^BenchmarkTorusHaloShard4(-[0-9]+)?$/ {print $(NF-1)}')
obs_ns=$(echo "$halo" | awk '$1 ~ /^BenchmarkTorusHaloShard4SamplerOn(-[0-9]+)?$/ {print $3}')
obs_allocs=$(echo "$halo" | awk '$1 ~ /^BenchmarkTorusHaloShard4SamplerOn(-[0-9]+)?$/ {print $(NF-1)}')
if [ -z "$seq_ns" ] || [ -z "$par_ns" ] || [ -z "$obs_ns" ] ||
    [ -z "$seq_allocs" ] || [ -z "$par_allocs" ] || [ -z "$obs_allocs" ]; then
    echo "FAIL: could not parse torus halo benchmark output; raw output was:"
    echo "$halo_raw"
    exit 1
fi
alloc_ok=$(awk -v a="$par_allocs" -v b="$seq_allocs" \
    'BEGIN { d = a - b; if (d < 0) d = -d; print (d <= 0.05 * b) ? 1 : 0 }')
if [ "$alloc_ok" != "1" ]; then
    echo "FAIL: sharded halo allocs/op = $par_allocs, sequential = $seq_allocs (>5% apart)"
    echo "check.sh: sharded kernel allocation regression"
    exit 1
fi
echo "check.sh: halo allocs/op within 5% (seq $seq_allocs, 4 shards $par_allocs)"
# The observed arm runs the same workload with every periodic observer
# armed (telemetry, RAS sampler, link meters, stall detector, heartbeat
# monitor, flight recorder; tracing excepted — it allocates per record by
# design). The added allocations are instrument registration plus the
# end-of-run merge/export — a fixed cost, not per-event and not a share of
# the bare arm — so the difference against the bare sharded arm is gated:
# measured 589k, fails above 650k (a reintroduced per-event allocation
# adds millions). Wall-clock over 3x only warns; it is machine-dependent.
obs_added_max=650000
obs_alloc_ok=$(awk -v o="$obs_allocs" -v b="$par_allocs" -v m="$obs_added_max" \
    'BEGIN { print (o - b <= m) ? 1 : 0 }')
if [ "$obs_alloc_ok" != "1" ]; then
    echo "FAIL: observed halo allocs/op = $obs_allocs, bare sharded = $par_allocs (more than $obs_added_max added)"
    echo "check.sh: observer allocation regression"
    exit 1
fi
echo "check.sh: observed halo adds at most $obs_added_max allocs/op to bare (bare $par_allocs, observed $obs_allocs)"
obs_ns_ok=$(awk -v o="$obs_ns" -v b="$par_ns" 'BEGIN { print (o <= 3.0 * b) ? 1 : 0 }')
if [ "$obs_ns_ok" != "1" ]; then
    echo "WARN: observed halo ns/op = $obs_ns, bare sharded = $par_ns (>3x; machine-dependent, not fatal)"
fi
cpus=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cpus" -ge 4 ]; then
    speedup_ok=$(awk -v s="$seq_ns" -v p="$par_ns" 'BEGIN { print (s >= 2.0 * p) ? 1 : 0 }')
    ratio=$(awk -v s="$seq_ns" -v p="$par_ns" 'BEGIN { printf "%.2f", s / p }')
    if [ "$speedup_ok" != "1" ]; then
        echo "FAIL: 4-shard halo speedup ${ratio}x (seq $seq_ns ns/op, 4 shards $par_ns ns/op); gate is 2.0x"
        echo "check.sh: sharded kernel speedup regression"
        exit 1
    fi
    echo "check.sh: halo 4-shard speedup ${ratio}x (gate 2.0x)"
else
    echo "check.sh: host has $cpus core(s); the 2x speedup gate needs >=4, skipped (alloc gate still enforced)"
fi
echo "check.sh: all green"
