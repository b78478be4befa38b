#!/bin/sh
# `make check-fast`: gofmt, vet, build, race-enabled tests and a smoke run of
# the examples and small tools. `make check` adds the host-cost contract
# tests (`make contracts`, DESIGN.md §7), which skip under the race runtime.
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
