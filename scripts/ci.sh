#!/bin/sh
# CI pipeline: build, vet, race-enabled tests, benchmark smoke.
# Run locally with `make ci` or `./scripts/ci.sh`.
set -eux

go build ./...
go vet ./...
gofmt -l . | tee /tmp/gofmt.out
test ! -s /tmp/gofmt.out

go test -race ./...

# Engine determinism gate: the worker pool must produce byte-identical
# results at every worker count, data-race free. Redundant with the full
# race run above, but kept explicit so a refactor that renames or skips
# these tests fails loudly here.
go test -race -run 'Determinism' -count=1 ./internal/engine ./internal/experiments

# Policy gate: the policy framework's bit-identical-default contract under
# the race detector — spelled-out default components reproduce the legacy
# disciplines deep-equal (TestPolicyGate*), the pinned golden means hold
# (TestGoldenValues), and every pre-framework Config.Hash is byte-stable
# (TestHashCompat*). Redundant with the full race run above, but kept
# explicit so a refactor that renames or skips these tests fails loudly.
go test -race -run 'PolicyGate|GoldenValues|HashCompat' -count=1 ./internal/core ./internal/integration

# Serving gate: the schedd invariants must hold under the race detector —
# repeated POST of one config is a byte-identical cache hit, a full queue
# sheds with 429, SIGTERM drains, cancelled requests free their slots, and
# /metrics agrees with the request sequence. All serve tests are named
# TestSchedd* so this line fails loudly if they are renamed or skipped.
go test -race -run 'Schedd' -count=1 ./internal/serve ./cmd/schedd

# Cluster gate: the distributed sweep fabric's acceptance properties under
# the race detector — a 2-worker sweep is byte-identical to one worker, a
# worker dying mid-sweep strands nothing (every point completes, rerouted,
# with rebalance metrics observed), a repeat sweep scores >= 0.9 remote
# cache hit ratio, and a -worker schedd registers/deregisters around
# SIGTERM. All cluster tests are named TestCluster* so this line fails
# loudly if they are renamed or skipped.
go test -race -run 'Cluster|ScheddWorkerLifecycle' -count=1 ./internal/cluster ./cmd/schedd

# Render gate: every catalog experiment, the single-run summary and the
# fault-study documents render byte-identical to pinned testdata as table,
# CSV and JSON (TestRender*), and the schedd and coordinator /metrics
# bodies match their pinned exposition (Test*Exposition*). Redundant with
# the full race run above, but kept explicit so a refactor that renames or
# skips the pins fails loudly here.
go test -race -run 'Render|Exposition' -count=1 ./internal/experiments ./internal/serve ./internal/cluster

# Process gate: the process layer's contract under the race detector —
# every formatted park reason and one full deadlock Diagnose body match
# their pinned text word for word (TestParkReason*, TestDiagnose*), a
# body panic surfaces from Run and Step with the process name
# (TestProcPanic*), aborts unwind with Aborted and scrub link, MMU and
# mailbox waiters (TestAbort*), and Shutdown unwinds every parked process
# with its deferred cleanup and no leaked goroutine (TestShutdown*).
# Router daemons are stackless steppers that take no coroutine
# (TestStepper*), their whole store-and-forward pipeline reproduces pinned
# event counts, totals and stall reports (TestRouterPipelinePins), the
# event heap and timer tree match a sorted reference
# (TestEventQueueOracle), re-armable timers keep their contract (Test*Timer*)
# and the FIFO ring keeps order through wraparound, growth and removal
# (TestRing*).
# Redundant with the full race run above, but kept explicit so a refactor
# that renames or skips the pins fails loudly here.
go test -race -run 'Park|Handoff|Shutdown|Panic|Abort|Diagnose|Stepper|RouterPipeline|EventQueue|Timer|Ring' -count=1 ./internal/sim ./internal/fifo ./internal/machine ./internal/comm ./internal/mem ./internal/sched ./internal/core

# Chaos gate: crash safety at the process level, wall clock bounded by
# -timeout. Real coordinator and worker processes are SIGKILLed and
# restarted mid-sweep and the network path takes resets and latency;
# the sweep must finish byte-identical to a clean single-worker run,
# the durable journal must account for every point exactly once, and a
# worker restarted over its tier-2 store must answer the repeat sweep
# >= 0.9 from warm cache. Skipped under the plain `go test` above (the
# tests fork processes and need SCHEDD_CHAOS=1); on failure the fault
# seed is in the log — replay with CHAOS_SEED=<seed>.
SCHEDD_CHAOS=1 go test -race -run 'Chaos' -count=1 -timeout 300s ./internal/chaosharness

# Fork gate: the warm-state forking determinism contract under the race
# detector — snapshots round-trip byte-identical mid-run for all five
# paper disciplines (with fault injection active), a warm fork is
# byte-identical to the cold run at -j 1 and -j 8, a t=0 fork equals the
# plain run, the Grid's fork-adjacency invariant holds, and a serialized
# snapshot resumed over /v1/fork on a 2-worker cluster matches the local
# warm run. Wall clock bounded by -timeout; fails loudly if the tests
# are renamed or skipped.
go test -race -run 'Fork|SnapshotRoundTrip' -count=1 -timeout 300s ./internal/core ./internal/engine ./internal/serve ./internal/cluster

# Open gate: the open-system streaming contract under the race detector —
# a 1M-job Poisson run must hold peak live heap flat relative to a 100k
# reference (no per-job retention), repeat runs must be bit-identical, and
# the quantile sketch must sit within its documented ε of exact sorted
# quantiles on a 100k reference stream. The integration tests fork the
# heavy runs only when OPEN_GATE=1; wall clock is bounded by -timeout
# (the 1M run takes ~2 minutes under -race).
OPEN_GATE=1 go test -race -run 'OpenGate' -count=1 -timeout 600s ./internal/integration ./internal/stats

# Benchmark smoke: one iteration of the cheapest figure plus the parallel
# sweep benchmark, just to prove the harness still runs. Full benchmarks
# are a manual `make bench` / `make sweep-bench`.
go test -run '^$' -bench BenchmarkFigure3 -benchtime 1x .
go test -run '^$' -bench BenchmarkSweepParallel -benchtime 1x .

# Kernel hot-path smoke (make bench-smoke): the event-heap / timer / router
# micro-benchmarks must keep compiling and running; full-precision numbers
# go to the BENCH_*.json ledger via `go run ./cmd/perfgate -group kernel`.
go test -run '^$' -bench 'BenchmarkKernel|BenchmarkNetworkAllToAll' -benchmem -benchtime 1x .

# Perf gate (make perf-gate): the declarative workload cases under
# perf/cases/ measured with warmup + trials, checked against per-class
# goals and the newest BENCH_*.json baseline, appended to BENCH_<today>.json.
# Heavyweight (minutes of repeated benchmark trials on a loaded CI host),
# so it fires only when PERF_GATE=1; the ledger validator always runs so a
# hand-edit that corrupts BENCH_*.json fails every CI run, cheap or not.
go run ./cmd/perfgate -validate
if [ "${PERF_GATE:-0}" = "1" ]; then
	make perf-gate
fi
