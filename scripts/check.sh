#!/bin/sh
# `make check-fast`: gofmt, vet, build, race-enabled tests, a smoke run of
# the examples and small tools, one artifact set written and read back, and
# the benchmark module's self-test and tests. `make check` adds the host-cost
# contract tests (`make contracts`, DESIGN.md §7), which skip under the race
# runtime.
set -e
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:"
    echo "$unformatted"
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
