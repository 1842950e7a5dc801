#!/bin/sh
# Tier-1 gate: format, vet, lint, build, and test the whole module. The -race
# run matters for internal/trace, whose tracer is documented as safe for
# concurrent Emit.
set -eux

# gofmt -l prints offending files and exits 0, so fail on non-empty output.
test -z "$(gofmt -l . | tee /dev/stderr)"

# go vet's copylocks check is the guard against a mutex, WaitGroup or typed
# atomic copied by value.
go vet ./...

# tdlint enforces the contracts that neither the compiler, go vet nor a test
# catches (DESIGN §9 names the commit whose DESIGN.md holds the mutation audit
# behind the list): determinism
# inside the simulation boundary, mutex-guard consistency and no blocking
# under a mutex in the concurrent layers, sim-time unit hygiene, and
# enum-switch exhaustiveness. Sequence arithmetic is the compiler's
# (packet.Seq) and metric naming a test's (TestMetricNamesFollowConvention).
# Exit 1 = findings, exit 2 = load failure; either fails the gate. The JSON
# findings list is kept as a CI artifact so a red gate is diagnosable without
# rerunning locally.
mkdir -p artifacts
go run ./cmd/tdlint -json ./... > artifacts/tdlint.json

go build ./...

# DESIGN.md stays within ROADMAP item 6's bound of 70 000 bytes: a section
# that grows is paid for by trimming another.
if [ "$(wc -c < DESIGN.md)" -gt 70000 ]; then
	echo "ci.sh: DESIGN.md is $(wc -c < DESIGN.md) bytes, over the 70 000-byte bound" >&2
	exit 1
fi

# One engine (ROADMAP item 2): every run executes on a plain sim.Loop.
# internal/sim/shard.go is a one-loop shim: sim.ShardedLoop wraps one Loop and
# hands it out as every lane, only so that benchmark/ladder.go's two rungs keep
# their names. Those names may appear in benchmark/, in shard.go, which
# defines them, and on the declaration line of rdcn.Config.Cluster, and
# nowhere else in non-test code. Cluster and netem.Pipe.Coalesce are ignored
# fields benchmark/ladder.go still sets: code outside benchmark/ and shard.go
# may not read them, so a second wiring cannot come back behind either. The
# allow-list goes with them.
if grep -rnE --include='*.go' --exclude='*_test.go' 'NewSharded|ShardedLoop|\.Cluster|\.Coalesce' . |
	grep -vE '^\./benchmark/|^\./internal/sim/shard\.go:|^\./internal/rdcn/network\.go:[0-9]+:	Cluster \*sim\.ShardedLoop$|/testdata/'; then
	echo "ci.sh: sim.ShardedLoop names or reads of Cluster/Coalesce outside benchmark/ and internal/sim/shard.go" >&2
	exit 1
fi

# One flow builder (DESIGN.md §10, "Run harness"): every flow of every variant is wired
# through the host muxes, and newMuxNet is what installs a host's upcalls.
# Outside internal/rdcn/ and benchmark/, non-test Go may assign a Host's Recv,
# NotifyTDN or NotifyPreChange in that function only, so a second wiring
# cannot come back.
if find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/rdcn/*' ! -path '*/testdata/*' -print0 |
	xargs -0 awk '
	FNR == 1 { fn = "" }
	/^func / { fn = $0 }
	/\.(Recv|NotifyTDN|NotifyPreChange)[ \t]*(,[^=]*)?=[^=]/ && fn !~ /^func newMuxNet\(/ { print FILENAME ":" FNR ": " $0; found = 1 }
	END { exit !found }'; then
	echo "ci.sh: host upcalls assigned outside newMuxNet" >&2
	exit 1
fi

# Code size, counted one way: non-test Go lines outside benchmark/ and
# testdata/, per package group and in total. This is the number a simplicity
# PR is judged by, so the gate prints it instead of every PR recounting it
# with its own excludes.
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 |
	xargs -0 wc -l | awk '
	$2 == "total" { next }
	{
		n = split($2, p, "/")
		key = n == 2 ? "." : p[2] == "internal" ? p[2] "/" p[3] : p[2]
		loc[key] += $1
		total += $1
	}
	END {
		for (k in loc) printf "%7d %s\n", loc[k], k | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}' | tee artifacts/loc.txt

# The nine allocation contracts, printed: the bytes and mallocs each further
# flow of an open-loop run costs, at most 512 B in 2 mallocs
# (TestWorkloadChurnAllocatesForItsResultOnly; flow reuse is judged by these
# numbers), the bytes each further measured week of a
# Run costs (TestRunAllocationIsFlatInHorizon: its result stops at PlotWeeks),
# at most 40 % of a first Run's bytes for a second one on the memory the first
# handed back (TestRunReusesItsMemory; the frame pool it hands on also holds
# the pipes' FIFO arrays and propagation cells), every wire buffer back in
# that pool once a run has handed it over, gets = puts
# (TestHandBackReturnsEveryFrame), at most 80 % of a Run's bytes building
# its endpoints when it reopens those a Run of equal variant, TDN count and
# FlowOptions handed on, MPTCP's parked flows and a faulted TDTCP Run among
# them (TestSameShapeRunReopensItsEndpoints), the allocations of a
# steady-state week of every variant on the hybrid and the 8-rack rotor
# (TestSteadyStateDoesNotAllocate), 0 allocations per VOQ enqueue and dequeue
# after NewVOQ, across a grow/shrink cycle (TestVOQDoesNotAllocate), a host
# NIC's FIFO array no larger than twice the frames it queues at once
# (TestPipeFIFOFollowsOccupancy), and the bytes a histogram holds for the
# octaves it has recorded, 0 allocations per Record after an octave's first
# (TestHistogramAllocatesTouchedOctavesOnly). Beside them, what handed-on
# memory retains: a parked flow holds nothing of its last run, whose network,
# result, flight recorder, schedule and histograms are collected
# (TestParkedFlowsHoldNothingOfTheirRun).
# These tests are now the only guard of the functions that used to carry a
# //lint:hotpath directive: no lint check looks at allocations. All but the
# VOQ's, the pipe's, the hand-back's and the parked flows' skip under -race, so
# the race run below does not cover them.
go test -count=1 -v -run 'TestWorkloadChurnAllocatesForItsResultOnly|TestRunAllocationIsFlatInHorizon|TestRunReusesItsMemory|TestHandBackReturnsEveryFrame|TestSameShapeRunReopensItsEndpoints|TestParkedFlowsHoldNothingOfTheirRun|TestSteadyStateDoesNotAllocate|TestVOQDoesNotAllocate|TestPipeFIFOFollowsOccupancy|TestHistogramAllocatesTouchedOctavesOnly' \
	./internal/experiments ./internal/netem ./internal/trace > artifacts/alloc.txt || { cat artifacts/alloc.txt; exit 1; }
cat artifacts/alloc.txt

# Full suite under the race detector. This one line carries every gate that
# used to re-run a subset:
# - Sweep: the parallel experiment runner must stay race-clean and
#   bit-identical to the sequential path (inside the determinism boundary,
#   goroutines are legal only in internal/experiments).
# - Progress reporter: the live meters are read by a wall-clock goroutine
#   while the simulation writes them, so internal/obs must stay race-clean
#   under concurrent Line/FlowStarted/FlowDone against a running loop.
# - Golden figures: figure orderings, goodput bands, the 8-rack determinism
#   trace, the workload sweep parity check, the conservation property suite,
#   the pinned trace+metrics bytes of the run path (TestPinnedBytes), and the
#   observer-independence and common-random-numbers tests.
# - Service lifecycle: internal/serve is the one place where goroutines,
#   wall clocks, and shared mutable job state meet, so its admission /
#   panic-isolation / drain tests must stay race-clean; cmd/tdserve's drain
#   tests are the smoke against the real binary: SIGTERM with a running job
#   must cancel it through the stop seam and exit 0 inside the budget.
go test -race ./...

# Platforms: a result is a function of the seed, not of the word size. The
# pinned trace, metrics and figure bytes, and the pinned stdout of the
# examples (whose `go run` inherits GOARCH), must come out the same with a
# 32-bit int (ROADMAP item 4).
GOARCH=386 go test -count=1 -run 'TestPinnedBytes|TestFigureBytesPinned|TestExamplesOutputPinned' . ./internal/experiments

# arm64 fuses a multiply and an add into one instruction that rounds once,
# where amd64 rounds twice, so a float expression could give another result
# there. Scan the arm64 assembly of the packages inside the determinism
# boundary, and of workload, stats and experiments, for fused instructions;
# an explicit float64(...) conversion rounds and prevents the fusion
# (DESIGN §5). The standard library's own fused sites are out of scope.
if GOARCH=arm64 go build -gcflags=-S ./internal/sim ./internal/netem ./internal/rdcn ./internal/tcp \
	./internal/core ./internal/cc ./internal/fault ./internal/workload ./internal/stats ./internal/experiments 2>&1 |
	grep -E '[[:space:]]F(N)?M(ADD|SUB)[SD][[:space:]]'; then
	echo "ci.sh: fused multiply-add in arm64 code of a result path" >&2
	exit 1
fi

# Coverage, counted over every package from every test (-coverpkg=./...), so a
# 0 % line in artifacts/coverage.txt means "no test anywhere reaches this",
# not "its own package's tests do not"; the profile and its per-function
# summary are CI artifacts (kept out of git via .gitignore). A pass of its own,
# without the race detector: with both, every test binary carries atomic
# counters on the hot paths of sim, netem and tcp, and internal/experiments
# and benchmark run past the 10-minute test timeout.
go test -coverprofile=artifacts/cover.out -coverpkg=./... ./...
go tool cover -func=artifacts/cover.out | tee artifacts/coverage.txt

# Bench smoke: one iteration of every benchmark in every package (the root's
# figure and mechanism benches, internal/packet's two codec benches), so none
# can silently rot. Numbers from -benchtime=1x are meaningless; tracked
# measurements come from `go run ./benchmark`, and the allocation-free steady
# state is a test (TestSteadyStateDoesNotAllocate), not a recorded number.
go test -run '^$' -bench . -benchmem -benchtime 1x ./...

# Fuzz smoke: a few seconds of each native fuzz target. Regression corpus
# entries under testdata/fuzz always run as part of `go test` above; this
# additionally exercises fresh random inputs.
go test -fuzz=FuzzConnDeliver -fuzztime=5s ./internal/tcp/
go test -fuzz=FuzzReassembly -fuzztime=5s ./internal/packet/
go test -fuzz=FuzzScheduleParse -fuzztime=5s ./internal/rdcn/
go test -fuzz=FuzzFlowSizeCDF -fuzztime=5s ./internal/workload/
go test -fuzz=FuzzOptimalSeries -fuzztime=5s ./internal/workload/
go test -fuzz=FuzzLoopMatchesReference -fuzztime=5s ./internal/sim/
go test -fuzz=FuzzSpecNormalize -fuzztime=5s ./internal/serve/
go test -fuzz=FuzzFaultPlan -fuzztime=5s ./internal/fault/
