# Build/verify entry points. `make check` is the CI gate: it checks
# formatting, vets, builds, runs the full test suite under the race detector
# (continuously validating the concurrent routers and the concurrent round
# ledger), smoke-runs every benchmark once, and compiles and tests the bench/
# module, so the benchmark programs themselves cannot rot.

GO ?= go

# Timing fidelity for the recorded benchmark suites (the BENCH_*.json
# baselines were recorded at 2s) and for the faster regression gate.
BENCHTIME      ?= 2s
GATE_BENCHTIME ?= 1s

# The recorded suites: one -bench regexp + package list per BENCH_*.json,
# shared by the human-facing bench-* targets and cmd/benchgate (which
# hardcodes the same pairs in internal/benchgate.Suites).
BENCH_ENGINE_BENCH := BenchmarkRoute
BENCH_ENGINE_PKGS  := ./internal/cc/
BENCH_SOLVER_BENCH := BenchmarkIPM|BenchmarkSolverSession|BenchmarkCholeskySolveTo|BenchmarkCholeskySolveLanes|BenchmarkLaplacianCholesky
BENCH_SOLVER_PKGS  := ./internal/maxflow/ ./internal/lapsolver/ ./internal/linalg/

# Common recipe: run one recorded benchmark suite with timing fidelity.
define run-bench
$(GO) test -run xxx -bench '$(1)' -benchmem -benchtime $(BENCHTIME) $(2)
endef

.PHONY: all build fmt-check vet test race bench-smoke bench-build bench-test bench-all bench-engine bench-baseline bench-solver bench-gate check experiments trace-smoke stress bench-faults serve-smoke net-smoke bench-net chaos-smoke bench-chaos

all: build

build:
	$(GO) build ./...

# Fail if any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The arm64 vet compiles internal/linalg without its amd64 assembly, so the
# Go fallback of the factor sweeps' AVX kernels keeps building.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/linalg/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every benchmark exactly once as a smoke test (no timing fidelity).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The routing microbenchmarks behind BENCH_engine.json.
bench-engine:
	$(call run-bench,$(BENCH_ENGINE_BENCH),$(BENCH_ENGINE_PKGS))

# The session-layer benchmarks behind BENCH_solver.json: build-once/solve-many
# vs rebuild-per-solve through the max-flow IPM and the many-RHS solver, four
# right-hand sides as lanes of one solve vs one at a time
# (BenchmarkSolverSessionLanes, which the BenchmarkSolverSession prefix
# matches), plus the factored sparsifier's kernels (one triangular solve, k
# right-hand sides as lanes, one factorization of L + J/n) at n = 128, 512
# and 1024.
bench-solver:
	$(call run-bench,$(BENCH_SOLVER_BENCH),$(BENCH_SOLVER_PKGS))

# Refresh every recorded baseline: re-measures each suite at full fidelity
# and writes BENCH_<suite>.new.json next to the checked-in files (copy over
# the baseline to accept, restoring headline commentary where it changed).
bench-baseline:
	$(GO) run ./cmd/benchgate -write-only -benchtime $(BENCHTIME)

# Perf-regression gate: re-measure each suite, write BENCH_<suite>.new.json,
# and diff against the checked-in baselines — ns/op within 1.75x, B/op
# within 1.5x, allocs/op within 1.25x, fault-workload round counts exact.
# Non-zero exit on any regression.
bench-gate:
	$(GO) run ./cmd/benchgate -benchtime $(GATE_BENCHTIME)

experiments:
	$(GO) run ./cmd/experiments

# Fault-injection stress gate: the differential suite (bit-identical outputs
# under lossy FaultPlans, multiple plan seeds) plus the fault/reliable-layer
# unit tests, all under the race detector. See DESIGN.md §9.
stress:
	$(GO) test -race -count=1 -run 'FaultDifferential' .
	$(GO) test -race -count=1 -run 'Fault|Reliable' ./internal/cc/

# Re-measure the reliable-delivery round overhead behind BENCH_faults.json.
bench-faults:
	$(GO) run ./cmd/experiments -run E13

# One traced solve per algorithm layer; validates the JSONL event stream
# against the schema and enforces the >= 95% span-attribution bar.
trace-smoke:
	$(GO) test -count=1 -run TestTraceSmoke ./internal/trace/

# Serving-layer smoke + gate: build lapccd, start it on a loopback port,
# replay the deterministic loadgen mix against it with -gate, and shut it
# down. The gate diffs the run's ns-per-request against BENCH_serve.json
# (seeded from the first run when missing) under the serve tolerance;
# per-op p50/p99 are printed and recorded but not gated — under
# concurrency they measure queueing luck, not solver speed. Unlike the
# timing suites, the aggregate figure at a generous ratio is stable
# enough to run everywhere, so this target is part of `make check`.
SERVE_ADDR ?= 127.0.0.1:18080

serve-smoke:
	@set -e; tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/lapccd ./cmd/lapccd; \
	$(GO) build -o $$tmp/loadgen ./cmd/loadgen; \
	$$tmp/lapccd -addr $(SERVE_ADDR) >$$tmp/lapccd.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	$$tmp/loadgen -base http://$(SERVE_ADDR) -gate

# Multi-process transport smoke + gate: build the worker binary, flowcc and
# lapsolve, solve the same max-flow instance in process and through a
# 4-process TCP clique on loopback, once with an injected fault plan and
# once without, and require byte-identical reports — flow value, IPM
# iteration counts, and the full charged-round breakdown; then the same for
# a Laplacian solve under the fault plan (answer, sparsifier size,
# Chebyshev iterations, round breakdown). The fault-free run takes the path
# the flow-tcp workload serves, where a batched route's batches and the
# ring layer's paired exchanges share delivery barriers; the faulty runs
# take the reliable layer's. Exercises the subprocess spawn, mesh
# bootstrap, barrier, and shutdown paths end to end; the worker processes
# are owned and reaped by the command's coordinator, so teardown is just
# the temp dir.
net-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/lapccnode ./cmd/lapccnode; \
	$(GO) build -o $$tmp/flowcc ./cmd/flowcc; \
	$(GO) build -o $$tmp/lapsolve ./cmd/lapsolve; \
	$$tmp/flowcc -algo maxflow -width 6 -faults seed=3,drop=0.02 >$$tmp/local.out; \
	$$tmp/flowcc -algo maxflow -width 6 -faults seed=3,drop=0.02 \
		-transport tcp,procs=4,bin=$$tmp/lapccnode | grep -v '^transport:' >$$tmp/tcp.out; \
	diff -u $$tmp/local.out $$tmp/tcp.out; \
	$$tmp/flowcc -algo maxflow -width 6 >$$tmp/clean-local.out; \
	$$tmp/flowcc -algo maxflow -width 6 \
		-transport tcp,procs=4,bin=$$tmp/lapccnode | grep -v '^transport:' >$$tmp/clean-tcp.out; \
	diff -u $$tmp/clean-local.out $$tmp/clean-tcp.out; \
	$$tmp/lapsolve -n 64 -faults seed=3,drop=0.02 >$$tmp/solve-local.out; \
	$$tmp/lapsolve -n 64 -faults seed=3,drop=0.02 \
		-transport tcp,procs=4,bin=$$tmp/lapccnode | grep -v '^transport:' >$$tmp/solve-tcp.out; \
	diff -u $$tmp/solve-local.out $$tmp/solve-tcp.out; \
	echo "net-smoke: OK (tcp output byte-identical to local, with and without faults)"

# Re-measure the per-backend delivery figures behind BENCH_net.json.
bench-net:
	$(GO) run ./cmd/benchgate -suites net

# Crash-recovery smoke + gate: solve the same max-flow instance (with an
# injected fault plan) through the in-process merge and through a
# *supervised* 4-process TCP clique whose chaos plan SIGKILLs worker 1
# before barrier 2 and worker 3 before barrier 5, resets 90% of epoch-0
# mesh writes (the first mesh incarnation always collapses), and fragments
# 10% of later writes. The supervisor respawns the workers, replays the
# failed barriers from the round checkpoint, and the report — flow value,
# IPM iterations, the full charged-round breakdown — must come out
# byte-identical to the undisturbed local run. Recovery bookkeeping prints
# on 'transport:' lines, which the diff filters. Then README's trace-plane
# quickstart, a traced Laplacian solve whose drop plan spreads it over
# enough barriers for both scheduled kills to land, runs once with
# in-process workers and once with real lapccnode processes: both must
# report kills=2 and write the same JSONL trace bytes. The chaotic runs
# record transport flight dumps; on failure the outputs, the dumps and the
# traces are preserved under .smoke-artifacts/ (CI uploads that directory)
# instead of vanishing with the temp dir.
QUICKSTART_SOLVE := -gen regular -n 256 -faults seed=101,drop=0.01 -chaos 'seed=7,kill=1:1,kill=2:3'

chaos-smoke:
	@tmp=$$(mktemp -d); \
	( set -e; \
	  $(GO) build -o $$tmp/lapccnode ./cmd/lapccnode; \
	  $(GO) build -o $$tmp/flowcc ./cmd/flowcc; \
	  $(GO) build -o $$tmp/lapsolve ./cmd/lapsolve; \
	  $$tmp/flowcc -algo maxflow -width 6 -faults seed=3,drop=0.02 >$$tmp/local.out; \
	  $$tmp/flowcc -algo maxflow -width 6 -faults seed=3,drop=0.02 \
		-transport tcp,procs=4,bin=$$tmp/lapccnode \
		-chaos 'seed=7,reset=0.9,partial=0.1,kill=2:1,kill=5:3' \
		-flight $$tmp/chaos.flight.jsonl 2>/dev/null \
		| grep -v '^transport:\|^flight:' >$$tmp/chaos.out; \
	  diff -u $$tmp/local.out $$tmp/chaos.out; \
	  $$tmp/lapsolve $(QUICKSTART_SOLVE) -transport tcp,procs=4 \
		-trace-events $$tmp/inproc.trace.jsonl -flight $$tmp/inproc.flight.jsonl >$$tmp/inproc.out 2>&1; \
	  $$tmp/lapsolve $(QUICKSTART_SOLVE) -transport tcp,procs=4,bin=$$tmp/lapccnode \
		-trace-events $$tmp/procs.trace.jsonl -flight $$tmp/procs.flight.jsonl >$$tmp/procs.out 2>&1; \
	  grep -q '^transport: recovery kills=2 ' $$tmp/inproc.out; \
	  grep -q '^transport: recovery kills=2 ' $$tmp/procs.out; \
	  cmp $$tmp/inproc.trace.jsonl $$tmp/procs.trace.jsonl; \
	); status=$$?; \
	if [ $$status -ne 0 ]; then \
	  mkdir -p .smoke-artifacts; \
	  cp $$tmp/*.out $$tmp/*.flight.jsonl $$tmp/*.trace.jsonl .smoke-artifacts/ 2>/dev/null || true; \
	  echo "chaos-smoke: FAILED (artifacts preserved in .smoke-artifacts/)"; \
	fi; \
	rm -rf "$$tmp"; \
	[ $$status -eq 0 ] && echo "chaos-smoke: OK (output under kills+resets byte-identical to local; traced quickstart identical across worker processes)"; \
	exit $$status

# Re-measure the kill-recovery overhead figures behind BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/benchgate -suites chaos

# Vet and compile the benchmark's own module (lapcc/bench, see
# BENCHMARK.json). Root `go build ./...` and `go test ./...` never touch it,
# yet it reads internal types such as cc.DeliveryStats and tcp.Transport.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null .

# Run the benchmark module's tests (about a minute): unit tests plus every
# workload's one-second smoke run, traced and untraced, with each answer
# checked against its oracle — the only end-to-end answer check of the four
# workloads.
bench-test:
	cd bench && $(GO) test ./...

# Run the benchmark in full, as BENCHMARK.json declares it: every workload
# it names at seed 1 with a 20 s window, untraced and traced (about three
# minutes on a 2-vCPU host). Fails on a non-zero exit or on a result line with failed
# requests or a wrong answer. bench-test's smoke runs (1 s window, one
# set-up, a 1-request digest prefix, 3 replays) cannot reach a fault that
# only a full run triggers. Not part of `make check`.
bench-all:
	@set -e; \
	workloads=$$(awk '/"workloads"/ {on = 1; next} on && /^ *\]/ {exit} on' BENCHMARK.json \
		| grep -o '"name": *"[^"]*"' | sed 's/.*"\([^"]*\)"$$/\1/'); \
	[ -n "$$workloads" ] || { echo "bench-all: no workloads found in BENCHMARK.json"; exit 1; }; \
	for w in $$workloads; do \
		for tr in 0 1; do \
			echo "== bench-all: $$w --trace $$tr"; \
			out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 20 --trace $$tr) \
				|| { echo "$$out"; echo "bench-all: FAILED ($$w --trace $$tr exited non-zero)"; exit 1; }; \
			res=$$(printf '%s\n' "$$out" | tail -n 1); \
			printf '%s\n' "$$res" | grep -o '"correct":[a-z]*,"attempted":[0-9]*,"failed":[0-9]*' || true; \
			printf '%s\n' "$$res" | grep -q '"correct":true,' && printf '%s\n' "$$res" | grep -q '"failed":0,' \
				|| { echo "bench-all: FAILED ($$w --trace $$tr: failed requests or a wrong answer)"; exit 1; }; \
		done; \
	done; \
	echo "bench-all: OK"

check: fmt-check vet build race bench-smoke bench-build bench-test trace-smoke serve-smoke net-smoke chaos-smoke
