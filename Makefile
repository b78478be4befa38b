# Stdlib-only Go; these targets just bundle the usual invocations.

.PHONY: all build test race vet bench figures check check-fast contracts alloc-sites machine-scale soak sloc

all: build

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# Substrate microbenchmarks (event kernel, process switch, one full put, one
# MPI round, a Portals call that parks in EQWait and one in EQPoll).
bench:
	go test -run xxx -bench 'SimulatorEventThroughput$$|SimulatorZeroDelayLane|SimulatorEventThroughputDeep|SimulatorEventThroughputLane|ProcSwitch|SleepInPlace|SimulatedPut|SimulatedMPI|ParkedCall|PolledCall' -benchmem .

# Every paper figure, one iteration each.
figures:
	go test -run xxx -bench 'Figure' -benchtime 1x -benchmem .

# The pre-commit gate: gofmt + doc names + vet + build + race tests + a smoke run of the
# examples and tools, then the host-cost contracts.
check: check-fast contracts

check-fast:
	sh scripts/check.sh

# The host-cost contracts of DESIGN.md §7: allocation counts of the substrate
# and workload benchmarks, as plain tests (`go test ./...` runs them too; they
# skip under -race). Wall-clock belongs to bench/ (BENCHMARK.json).
contracts:
	go test -run '^TestContract' -count=1 .

# Where a contract's allocations come from: every allocation of two
# iterations of root benchmark W (a Benchmark* name of bench_test.go without
# the prefix: UniformLossy, HotSpot, TorusCollective, SimulatedPut, ...)
# profiled and the 30 busiest sites listed by objects allocated. Counts
# include testing.Benchmark's one-iteration trial, so a job-sized body reads
# three jobs. The binary and the profile land in the git-ignored .bench_build/.
W ?= UniformLossy
alloc-sites:
	mkdir -p .bench_build
	go test -run xxx -bench 'Benchmark$(W)$$' -benchtime 2x -memprofile .bench_build/alloc.pprof -memprofilerate 1 -o .bench_build/alloc.test .
	go tool pprof -sample_index=alloc_objects -top -nodecount 30 .bench_build/alloc.test .bench_build/alloc.pprof

# The machine-scale proof, outside tier-1 (~10 s, ~550 MB): the 32,768-rank
# collective runs once and fails above 1 GiB of heap or on any rank error.
machine-scale:
	go test -run xxx -bench TorusCollective32k -benchtime 1x .

# Chaos soak campaigns, the CI gate: seeded virtual-time fault schedules over
# four torus jobs (halo, collective, uniform and hot-spot traffic on the 3x3x3
# torus), 5 seeds each at shards 1 and 4 in under a second, ledger-balanced
# and byte-identical across shard counts; failures auto-bisect to a minimal
# schedule and print its netpipe repro. Everything a run leaves behind lands
# under the git-ignored soak_artifacts/: each arm's host-execution profile
# and a failing run's dumps (render either with p3stat).
soak:
	go run ./cmd/soak -seeds 5 -hostprof

# Non-test Go lines outside bench/, per package (blank lines and whole-line
# comments not counted), then the total: run it before and after a change to
# report what the change deleted.
sloc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs awk '!/^[ \t]*(\/\/|$$)/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; t++ } END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'
