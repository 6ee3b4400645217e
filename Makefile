# Convenience targets; `make ci` is what the CI workflow runs.

GO ?= go

.PHONY: all build vet test race bench bench-smoke perf-gate sweep-bench determinism policy-gate proc-gate serve-gate cluster-gate chaos-gate fork-gate open-gate schedd figures fault ci fmt

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration of the kernel hot-path benchmarks: proves they compile and
# run without paying for stable numbers. CI runs this.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel|BenchmarkNetworkAllToAll' -benchmem -benchtime 1x .

# Performance gate: run the declarative workload cases under perf/cases/
# (warmup + trials, medians, noise bands), enforce each case's goals for
# this host's machine class, compare against the newest ledger baseline for
# the same case + class, and append structured entries to BENCH_<today>.json.
# Exit is nonzero on a missed goal or a regression past the tolerance band.
# Goals declared for other machine classes are advisory (a 1-core CI host
# cannot attest a >=2x parallel speedup). CI runs this when PERF_GATE=1.
perf-gate:
	$(GO) run ./cmd/perfgate

sweep-bench:
	$(GO) test -run '^$$' -bench BenchmarkSweepParallel .

determinism:
	$(GO) test -race -run 'Determinism' -count=1 ./internal/engine ./internal/experiments

# Policy-framework gate: the bit-identical-default contract under the race
# detector — composing the default policy components reproduces the legacy
# disciplines exactly (TestPolicyGate*), the pinned golden means hold
# (TestGoldenValues), and every pre-framework Config.Hash is byte-stable
# (TestHashCompat*), so warm caches and cluster routing keys stay valid.
# CI runs this.
policy-gate:
	$(GO) test -race -run 'PolicyGate|GoldenValues|HashCompat' -count=1 ./internal/core ./internal/integration

# Process-layer contract under the race detector: pinned park reasons and
# deadlock diagnosis, body panics, aborts scrubbing waiters, Shutdown
# unwinding parked processes, stepper router daemons and their pinned
# pipeline, the event-heap oracle, the re-armable timers and the FIFO
# ring. CI runs this.
proc-gate:
	$(GO) test -race -run 'Park|Handoff|Shutdown|Panic|Abort|Diagnose|Stepper|RouterPipeline|EventQueue|Timer|Ring' -count=1 ./internal/sim ./internal/fifo ./internal/machine ./internal/comm ./internal/mem ./internal/sched ./internal/core

# Serving invariants under the race detector (cache hits byte-identical,
# backpressure sheds, SIGTERM drains, metrics agree). CI runs this.
serve-gate:
	$(GO) test -race -run 'Schedd' -count=1 ./internal/serve ./cmd/schedd

# Cluster fabric invariants under the race detector (byte-identical sweeps
# at any fleet size, worker death survived with rebalances, repeat-sweep
# cache affinity, worker lease lifecycle). CI runs this.
cluster-gate:
	$(GO) test -race -run 'Cluster|ScheddWorkerLifecycle' -count=1 ./internal/cluster ./cmd/schedd

# Process-level crash safety under the race detector: real schedd
# processes get SIGKILLed mid-sweep (workers and the coordinator), the
# network path gets resets and latency, and the sweep must still finish
# byte-identical with the journal accounting every point exactly once.
# Wall clock is bounded by the -timeout; the failure seed is logged for
# replay with CHAOS_SEED. CI runs this.
chaos-gate:
	SCHEDD_CHAOS=1 $(GO) test -race -run 'Chaos' -count=1 -timeout 300s ./internal/chaosharness

# Warm-fork gate: the snapshot/fork determinism contract under the race
# detector — every snapshot round-trips byte-identical mid-run for all
# five paper disciplines and the zoo policies (TestSnapshotRoundTrip*),
# a warm fork equals the cold run byte-for-byte at -j 1 and -j 8
# (TestForkSweepWarmEqualsCold, TestForkWarmEqualsCold), a t=0 fork
# equals the plain run (TestForkSweepT0EqualsPlainRun), the Grid keeps
# divergible dims innermost (TestGridForkAdjacency), and a serialized
# snapshot resumed on a 2-worker cluster matches the local warm run
# (TestClusterForkResume, TestScheddFork*). CI runs this.
fork-gate:
	$(GO) test -race -run 'Fork|SnapshotRoundTrip' -count=1 -timeout 300s ./internal/core ./internal/engine ./internal/serve ./internal/cluster

# Open-system gate: flat memory at millions-of-jobs scale under the race
# detector — the 1M-job Poisson stream's peak live heap must match the 100k
# reference (TestOpenGateFlatMemory), repeat runs are bit-identical
# (TestOpenGateDeterminism), and the quantile sketch holds its documented ε
# against exact sorted quantiles (TestOpenGateSketchAccuracy). The heavy
# integration runs fire only with OPEN_GATE=1. CI runs this.
open-gate:
	OPEN_GATE=1 $(GO) test -race -run 'OpenGate' -count=1 -timeout 600s ./internal/integration ./internal/stats

schedd:
	$(GO) run ./cmd/schedd

figures:
	$(GO) run ./cmd/ippsbench

fault:
	$(GO) run ./cmd/faultstudy

ci:
	./scripts/ci.sh
