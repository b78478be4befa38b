#!/bin/sh
# `make check-fast`: gofmt, test names cited in the docs, vet, build,
# race-enabled tests, a smoke run of the examples and small tools, one
# artifact set written and read back, every NetPIPE series and pattern
# through the CLI, and the benchmark module's self-test and tests. `make
# check` adds the host-cost contract tests (`make contracts`, DESIGN.md §7),
# which skip under the race runtime.
set -e
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== doc names =="
# Every backticked Test…, Benchmark… or Fuzz… name in a tracked .md file must
# name a function in the tree; one followed by * or … is a prefix of some. Only
# the documents that describe the tree are read: README.md, DESIGN.md,
# EXPERIMENTS.md and every .md below the root. The other files at the root are
# history, plans and reference material, which name what is gone, not yet
# written or in other code.
defs=$(mktemp)
git ls-files '*.go' | xargs grep -ohE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' |
    sed 's/^func //' | sort -u >"$defs"
dangling=$(git ls-files '*.md' | grep -E '^(README|DESIGN|EXPERIMENTS)\.md$|/' | xargs awk '
{
    line = $0
    while (match(line, /`[^`]+`/)) {
        s = substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
        while (match(s, /(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*(\*|…)?/)) {
            name = substr(s, RSTART, RLENGTH)
            before = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
            s = substr(s, RSTART + RLENGTH)
            if (before !~ /[A-Za-z0-9_]/) print FILENAME ":" FNR ": " name
        }
    }
}' | while IFS= read -r ref; do
    name=${ref##*: }
    base=${name%\*}
    base=${base%…}
    if [ "$base" = "$name" ]; then
        grep -qx "$name" "$defs" || echo "$ref"
    else
        grep -q "^$base" "$defs" || echo "$ref"
    fi
done)
rm -f "$defs"
if [ -n "$dangling" ]; then
    echo "FAIL: these test, benchmark or fuzz names name no function:"
    echo "$dangling"
    exit 1
fi

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

echo "== smoke: one artifact set, written by netpipe, read back by p3stat =="
# Both run modes write what the machine recorded (machine.Artifacts); p3stat
# must render every file given only its path. The flight recorder's rings are
# the one event record and the Chrome timeline renders them two ways — a
# traced run's trace.json and p3stat -chrome of a dump — so both the
# tracing-only run and the dump's rendering are read back too.
art=$(mktemp -d)
trap 'rm -rf "$art"' EXIT
go run ./cmd/netpipe -torus -dim 3 -telemetry "$art/torus.json" -hostprof "$art/hostprof.json" >/dev/null
go run ./cmd/netpipe -series put -max 4096 -flightrec -dumpout "$art/run.p3dump" -trace "$art/trace.json" >/dev/null
go run ./cmd/netpipe -series put -max 4096 -trace "$art/traceonly.json" >/dev/null
go run ./cmd/p3stat -chrome "$art/dump.json" "$art/run.p3dump" >/dev/null
for f in torus.json hostprof.json run.p3dump trace.json traceonly.json dump.json; do
    if ! smoke_out=$(go run ./cmd/p3stat "$art/$f" 2>&1); then
        echo "FAIL: p3stat $f exited non-zero:"
        echo "$smoke_out"
        exit 1
    fi
    if [ -z "$smoke_out" ]; then
        echo "FAIL: p3stat $f printed nothing"
        exit 1
    fi
done
echo "check.sh: p3stat rendered 6 artifacts"

echo "== smoke: every NetPIPE module and pattern through the CLI =="
# One driver runs every series (put and get over the Portals module, mpich1
# and mpich2 over the MPI module) in every pattern; run each pair once, and
# the accelerated put, through cmd/netpipe. Each must exit zero and print a
# table: its header and a row per message size.
go build -o "$art/netpipe" ./cmd/netpipe
np_runs=0
np_smoke() {
    if ! smoke_out=$("$art/netpipe" "$@" 2>&1); then
        echo "FAIL: netpipe $* exited non-zero:"
        echo "$smoke_out"
        exit 1
    fi
    if ! echo "$smoke_out" | grep -q '^# ' || ! echo "$smoke_out" | grep -Eq '^ *[0-9]+ B '; then
        echo "FAIL: netpipe $* printed no table:"
        echo "$smoke_out"
        exit 1
    fi
    np_runs=$((np_runs + 1))
}
for series in put get mpich1 mpich2; do
    for pattern in pingpong stream bidir; do
        np_smoke -series "$series" -pattern "$pattern" -max 4096
    done
done
np_smoke -accel -series put
echo "check.sh: netpipe printed $np_runs tables"

echo "== smoke: a seeded lossy torus job, replayed and resharded =="
# A node's fault stream is a function of the fault seed and the node alone:
# the same lossy go-back-n job, run twice on one lane and once on two, must
# inject faults, close its ledger and print the same output but for the
# header's shards= field.
lossy="-torus -dim 4 -workload random -msgs 8 -gbn -faults drop:data:0.02,drop:fcack:0.02,dup:data:0.02 -faultseed 7 -stats"
for run in 1a 1b 2; do
    # shellcheck disable=SC2086 # $lossy is a list of flags
    if ! "$art/netpipe" $lossy -shards "${run%[ab]}" >"$art/lossy-$run.txt" 2>&1; then
        echo "FAIL: netpipe $lossy -shards ${run%[ab]} exited non-zero:"
        cat "$art/lossy-$run.txt"
        exit 1
    fi
    if ! grep -Eq '^fault plane: injected=[1-9][0-9]* .* open=0$' "$art/lossy-$run.txt"; then
        echo "FAIL: netpipe $lossy -shards ${run%[ab]} injected no fault or left its ledger open:"
        grep '^fault plane:' "$art/lossy-$run.txt" || echo "(no fault plane: line)"
        exit 1
    fi
    sed '/^# /s/shards=[0-9]*//' "$art/lossy-$run.txt" >"$art/lossy-$run.cmp"
done
for run in 1b 2; do
    if ! cmp -s "$art/lossy-1a.cmp" "$art/lossy-$run.cmp"; then
        echo "FAIL: the lossy job's output differs between runs 1a and $run:"
        diff "$art/lossy-1a.cmp" "$art/lossy-$run.cmp" | head -20
        exit 1
    fi
done
echo "check.sh: the lossy job replayed identically at shards 1, 1 and 2"

echo "== benchmark module: build, self-test, tests =="
# bench/ is a module of its own, so nothing above compiles or runs it, and
# its fabric and firmware rungs (bench/layers.go) drive internal/ through
# calls no root test makes: a change there can break them at run time without
# breaking their build.
go build -C bench -o /dev/null .
if ! smoke_out=$(go run -C bench portals3/bench -smoke 2>&1); then
    echo "FAIL: bench -smoke exited non-zero:"
    echo "$smoke_out"
    exit 1
fi
echo "$smoke_out" | tail -n 1
go test -C bench ./...
