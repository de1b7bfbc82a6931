# Developer entry points. The repo is pure Go stdlib; no tools beyond the Go
# toolchain are required.

GO ?= go

# RACE_PKGS covers the packages that exercise the concurrent code paths:
# the serial tensor and blocked/packed gemm kernels (whose pooled pack
# buffers are shared across goroutines) and the linalg products routed
# through them, the compiled training step's
# sweep-cell minibatch shards (packed weights shared read-only, one arena
# per cell), sweep-parallel dataset labelling and the compiled
# inference snapshot shared by concurrent sweeps, the optimizer (whose
# isolation test trains one model while another goroutine decides on, and
# reads the attention maps of, a second), the analytical baseline (whose
# per-configuration analysis runs as sweep cells), the gateway (whose
# batch-timeout flusher, timed-out batches and control loop run on their own
# goroutines under test, and
# which pools waiters across shard mutexes and a lock-free exchange slot), the
# fault-injection layer (whose FaultyBackend counter is hit from concurrent
# batch executions), the observability registry/recorder hammered from many
# goroutines, the load generator's closed-loop worker pool, the
# workload/replay pair (whose replay driver runs the
# gateway's batching goroutines from a virtual-time driver), the sweep
# engine (worker pools claiming cells off a shared atomic cursor), the
# qsim grid search (which fans out over sweep workers), the fleet layer
# (whose per-group gateways, tuner ticker, and demultiplexing front door
# all run concurrent goroutines), and the experiments lab (whose
# cell-parallel figures — training cells and fig14's shared-model cells
# among them — must stay invariant under the detector's scheduling
# perturbation).
RACE_PKGS = ./internal/tensor/... ./internal/gemm/... ./internal/linalg/... ./internal/surrogate/... ./internal/optimizer/... ./internal/batchopt/... ./internal/gateway/... ./internal/fault/... ./internal/obs/... ./internal/loadgen/... ./internal/workload/... ./internal/replay/... ./internal/sweep/... ./internal/qsim/... ./internal/fleet/...

# Per-package coverage floors enforced by `make cover` (see the cover target).
COVER_FLOOR_GATEWAY = 80
COVER_FLOOR_FAULT   = 90
COVER_FLOOR_REPLAY  = 80
COVER_FLOOR_FLEET   = 80

.PHONY: verify fmtcheck lint test race fuzz chaos cover loadgen-smoke replay-smoke sweep-smoke

## verify: tier-1 gate — formatting, vet, the deepbatlint pass, full build,
## and the full test suite, then the packages whose behaviour has depended on
## the core count (gateway sharding, inference fan-out and dataset
## labelling, Decide, the BATCH baseline's per-configuration fan-out, the
## grid search's partition fan-out and the planner above it, the replay
## driver whose waiters are resolved on whichever goroutine dispatches, the
## fault layer under the chaos scenarios, and the tensor kernels) again at
## GOMAXPROCS 1, 2 and 4. Every PR must leave this green.
verify: fmtcheck
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/lint ./...
	$(GO) test ./...
	$(GO) test -cpu 1,2,4 ./internal/gateway/ ./internal/surrogate/ ./internal/optimizer/ ./internal/qsim/ ./internal/fleet/ ./internal/replay/ ./internal/batchopt/ ./internal/tensor/ ./internal/fault/...

## fmtcheck: fail (listing the files) if any file is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: run the repo-specific static-analysis pass (internal/analysis) over
## every package. Exits non-zero on findings with file:line diagnostics.
lint:
	$(GO) run ./cmd/lint ./...

test: verify

## race: run the concurrency-sensitive packages under the race detector.
## The gateway is additionally run with the poolcheck build tag, which
## poisons recycled waiters on put and panics on double-put, on a waiter
## pooled unresolved or with a response or wake-up token left on it, on
## dirty reuse, or on a batch backing array recycled twice — pool-hygiene
## bugs the race detector alone cannot see.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -tags poolcheck ./internal/gateway/
	$(GO) test -race -run 'WorkerInvariance' ./internal/experiments/

## loadgen-smoke: CI smoke check for the serving path — short closed-loop
## wall-clock saturation runs at one and two shards, each of which must
## finish with goodput > 0 and zero failed requests.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -clients 8 -duration 2s -sweep 1,2 -assert

## fuzz: short native-fuzzing passes sized for CI. FuzzRun hammers the
## discrete-event simulator's batching invariants (corpus seeds include
## fault schedules, so the failure mirror is fuzzed too); FuzzGroundTruthBest
## hammers the scoring grid search against the per-config-Run search (same
## config, same score bit for bit, SLOs on and one ulp either side of a
## config's exact tail); FuzzDecode hammers
## the tracev1 binary decoder (never panics, and anything it accepts must
## round-trip bit-identically); FuzzPlanValidate hammers the fleet plan
## codec (never panics, and any plan the canonical decoder accepts must
## re-encode bit-identically); FuzzTrainStepMatchesTape hammers the compiled
## training step (a random tiny architecture, window, dropout and target must
## give the tape's loss and gradients bit for bit); FuzzPredictGridMatchesPredict
## hammers inference on the same packed network (a random tiny architecture,
## window and grid must give the tape forward's predictions bit for bit, also
## on the model Load makes of a Save with one weight changed).
fuzz:
	$(GO) test -fuzz=FuzzRun -fuzztime=20s -run='^$$' ./internal/qsim
	$(GO) test -fuzz=FuzzGroundTruthBest -fuzztime=20s -run='^$$' ./internal/qsim
	$(GO) test -fuzz=FuzzDecode -fuzztime=20s -run='^$$' ./internal/workload
	$(GO) test -fuzz=FuzzPlanValidate -fuzztime=20s -run='^$$' ./internal/fleet
	$(GO) test -fuzz=FuzzTrainStepMatchesTape -fuzztime=20s -run='^$$' ./internal/surrogate
	$(GO) test -fuzz=FuzzPredictGridMatchesPredict -fuzztime=20s -run='^$$' ./internal/surrogate

## replay-smoke: CI check for the workload-zoo replay path — generate a
## small azure tracev1 (digest-verified), replay it twice through the real
## gateway hot path on the virtual clock, and assert the two reports (and
## metric snapshots) are byte-identical.
replay-smoke:
	$(GO) run ./cmd/tracegen -name azure -hours 4 -o /tmp/replay-smoke.tracev1 -check
	$(GO) run ./cmd/replay -trace /tmp/replay-smoke.tracev1 -shards 4 -metrics /tmp/replay-smoke.m1.json > /tmp/replay-smoke.r1.txt
	$(GO) run ./cmd/replay -trace /tmp/replay-smoke.tracev1 -shards 4 -metrics /tmp/replay-smoke.m2.json > /tmp/replay-smoke.r2.txt
	cmp /tmp/replay-smoke.r1.txt /tmp/replay-smoke.r2.txt
	cmp /tmp/replay-smoke.m1.json /tmp/replay-smoke.m2.json
	@echo "replay-smoke: byte-identical reports and metric snapshots"

## sweep-smoke: CI check for the deterministic parallel sweep engine — run
## the cell-parallel scenarios experiment at 1 and 4 workers and assert the
## rendered report AND the merged per-cell metric snapshot are
## byte-identical, then the same for fig14 (cells sharing one trained model)
## and for a parallel replay shard sweep.
sweep-smoke:
	$(GO) run ./cmd/experiments -exp scenarios -quick -workers 1 -metrics /tmp/sweep-smoke.m1.json | grep -v 'finished in' > /tmp/sweep-smoke.r1.txt
	$(GO) run ./cmd/experiments -exp scenarios -quick -workers 4 -metrics /tmp/sweep-smoke.m4.json | grep -v 'finished in' > /tmp/sweep-smoke.r4.txt
	cmp /tmp/sweep-smoke.r1.txt /tmp/sweep-smoke.r4.txt
	cmp /tmp/sweep-smoke.m1.json /tmp/sweep-smoke.m4.json
	$(GO) run ./cmd/experiments -exp fig14 -quick -workers 1 | grep -v 'finished in' > /tmp/sweep-smoke.f1.txt
	$(GO) run ./cmd/experiments -exp fig14 -quick -workers 4 | grep -v 'finished in' > /tmp/sweep-smoke.f4.txt
	cmp /tmp/sweep-smoke.f1.txt /tmp/sweep-smoke.f4.txt
	$(GO) run ./cmd/replay -name azure -hours 2 -hour-seconds 30 -sweep 1,2,4 -workers 1 -metrics /tmp/sweep-smoke.rm1.json > /tmp/sweep-smoke.rr1.txt
	$(GO) run ./cmd/replay -name azure -hours 2 -hour-seconds 30 -sweep 1,2,4 -workers 4 -metrics /tmp/sweep-smoke.rm4.json > /tmp/sweep-smoke.rr4.txt
	cmp /tmp/sweep-smoke.rr1.txt /tmp/sweep-smoke.rr4.txt
	cmp /tmp/sweep-smoke.rm1.json /tmp/sweep-smoke.rm4.json
	@echo "sweep-smoke: byte-identical reports and metric snapshots at 1 vs 4 workers"

## chaos: the -race chaos soak — a real-time gateway under concurrent load
## with seeded backend faults, retries, deadlines, the breaker and the
## wall-clock timeout flusher (T = 2 ms) all live —
## plus the fleet fault-isolation scenarios (an error storm on one class
## opens only that class's breaker; sibling groups' observable bytes are
## unchanged). Bounded to ~20s (15s soak + harness overhead).
chaos:
	CHAOS_SOAK_S=15 $(GO) test -race -run 'TestChaosSoak|TestChaosScenarios|TestChaosNoLeakedGoroutines' -v -timeout 120s ./internal/gateway/
	$(GO) test -race -run 'TestFleetChaos' -v -timeout 120s ./internal/fleet/

## cover: per-package coverage gate. Fails if gateway drops below
## $(COVER_FLOOR_GATEWAY)%, fault below $(COVER_FLOOR_FAULT)%, replay below
## $(COVER_FLOOR_REPLAY)%, or fleet below $(COVER_FLOOR_FLEET)% of
## statements (stdlib tooling only: go test -coverprofile + go tool cover).
cover:
	@set -e; \
	check() { \
		pkg=$$1; floor=$$2; \
		$(GO) test -coverprofile=cover.$$3.out -covermode=atomic $$pkg >/dev/null; \
		pct=$$($(GO) tool cover -func=cover.$$3.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		rm -f cover.$$3.out; \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN {print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "coverage below floor"; exit 1; fi; \
	}; \
	check ./internal/gateway $(COVER_FLOOR_GATEWAY) gateway; \
	check ./internal/fault $(COVER_FLOOR_FAULT) fault; \
	check ./internal/replay $(COVER_FLOOR_REPLAY) replay; \
	check ./internal/fleet $(COVER_FLOOR_FLEET) fleet
