# DIABLO reproduction — convenience targets (plain `go` commands work too).

GO ?= go

.PHONY: build test test-short vet lint lint-fast lint-audit race fuzz-smoke bench-exhibits exhibits exhibits-quick examples trace-smoke snapshot-smoke adversary-smoke pexec-smoke spans-smoke knee-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Determinism linter: proves the sim-time packages clean of wall clocks,
# global randomness, order-sensitive map iteration, concurrency primitives,
# float math on ordering/digest paths, unencoded mutable snapshot fields,
# impure observers, and heap allocation in //perf:noalloc hot paths (DESIGN.md "Determinism rules & lint" and
# "Static analysis v2"). Exits non-zero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/diablo-lint ./...

# Subset run for tight edit loops: make lint-fast CHECKS=float,hotalloc
# (default: every check).
CHECKS ?=
lint-fast:
	$(GO) run ./cmd/diablo-lint $(if $(CHECKS),-checks $(CHECKS)) ./...

# Same as lint, plus the //lint:allow suppression audit trail.
lint-audit:
	$(GO) run ./cmd/diablo-lint -audit ./...

test: vet lint adversary-smoke pexec-smoke spans-smoke knee-smoke fuzz-smoke
	$(GO) test ./...

# Ten seconds of each fuzz target: the two differential oracles of the
# pre-decoded interpreters (decoded program == byte-stream loop, DESIGN.md §5),
# the checkpoint decoder and the Primary/Secondary wire reader. go test fuzzes
# one target of one package per run.
# Minimising is capped at 20 runs an input: left at its 60 s default, shrinking
# the first kilobyte-sized contract that finds new coverage eats the whole ten
# seconds.
FUZZ = -run '^$$' -fuzztime=10s -fuzzminimizetime=20x
fuzz-smoke:
	$(GO) test ./internal/vm $(FUZZ) -fuzz '^FuzzProgramMatchesBytecode$$'
	$(GO) test ./internal/avm $(FUZZ) -fuzz '^FuzzMachineMatchesBytecode$$'
	$(GO) test ./internal/snapshot $(FUZZ) -fuzz '^FuzzDecode$$'
	$(GO) test ./internal/remote $(FUZZ) -fuzz '^FuzzRecv$$'

test-short:
	$(GO) test -short ./...

# Race-detector pass: the parallel sweep runner (bench, core, report) and the
# parallel block executor (chains, pexec) with the two interpreters whose
# decoded programs its lanes share, plus the sim-time packages they drive;
# and the TCP Primary/Secondary path (remote, whose goroutines share
# sockets) with the wallet its Secondaries sign through.
race:
	$(GO) test -race ./internal/sim ./internal/chaos ./internal/simnet \
		./internal/chains/... ./internal/bench ./internal/core \
		./internal/obs ./internal/collect ./internal/snapshot \
		./internal/report ./internal/adversary ./internal/invariant \
		./internal/pexec ./internal/span ./internal/stream \
		./internal/vm ./internal/avm ./internal/remote ./internal/wallet

# One Go benchmark per table/figure, reduced scale.
bench-exhibits:
	$(GO) test -bench=. -benchmem

# Regenerate every table and figure at the paper's full deployment scale
# (188 s on a 2-vCPU Xeon host) with CSV series under results/.
exhibits:
	$(GO) run ./cmd/diablo-exp --csv=results all

# Laptop-scale exhibits (~1 minute).
exhibits-quick:
	$(GO) run ./cmd/diablo-exp --node-scale=10 all

# End-to-end observability smoke test: run a short traced benchmark, then
# validate and render the trace with diablo-report.
trace-smoke:
	$(GO) run ./cmd/diablo run --stat=10 --tail=30s --metrics \
		--trace=trace-smoke.jsonl.gz \
		specs/setup-quorum.yaml specs/workload-native-10.yaml
	$(GO) run ./cmd/diablo-report trace --check trace-smoke.jsonl.gz
	$(GO) run ./cmd/diablo-report trace trace-smoke.jsonl.gz
	rm -f trace-smoke.jsonl.gz

# Checkpoint/resume smoke test: record a checkpointed chaos run, resume it
# from the 50s checkpoint (mid-crash), require byte-identical results after
# wall_ms normalization, and prove the re-recorded checkpoints bisect clean.
snapshot-smoke:
	rm -rf ck-a ck-b ck-a.json ck-b.json
	$(GO) run ./cmd/diablo run --checkpoint-every=25 --checkpoint-dir=ck-a \
		--tail=120s --output=ck-a.json \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	$(GO) run ./cmd/diablo run --resume=ck-a/cp-000000050000ms.snap \
		--checkpoint-dir=ck-b --tail=120s --output=ck-b.json \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' ck-a.json > ck-a.norm.json
	sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' ck-b.json > ck-b.norm.json
	cmp ck-a.norm.json ck-b.norm.json
	$(GO) run ./cmd/diablo-report bisect ck-a ck-b
	rm -rf ck-a ck-b ck-a.json ck-b.json ck-a.norm.json ck-b.norm.json

# Byzantine adversary smoke test: run the equivocating-leader spec twice
# under the invariant gate and require byte-identical results after
# wall_ms normalization; then require the gate to exit non-zero on the
# deliberately unsafe (f=2) spec, proving the agreement monitor fires.
adversary-smoke:
	rm -f adv-a.json adv-b.json adv-a.norm.json adv-b.norm.json
	$(GO) run ./cmd/diablo run --invariants --output=adv-a.json \
		specs/setup-quorum-byzantine.yaml specs/workload-native-10.yaml
	$(GO) run ./cmd/diablo run --invariants --output=adv-b.json \
		specs/setup-quorum-byzantine.yaml specs/workload-native-10.yaml
	sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' adv-a.json > adv-a.norm.json
	sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' adv-b.json > adv-b.norm.json
	cmp adv-a.norm.json adv-b.norm.json
	! $(GO) run ./cmd/diablo run --invariants \
		specs/setup-quorum-byzantine-unsafe.yaml specs/workload-native-10.yaml
	rm -f adv-a.json adv-b.json adv-a.norm.json adv-b.norm.json

# Parallel-execution smoke test: the chaos spec and the contract workload
# must produce byte-identical results (after wall_ms normalization and
# dropping the "pexec" counter block, which only worker>1 runs emit) with
# serial and 4-worker intra-block execution — the DESIGN.md §14 guarantee,
# end to end through the CLI.
pexec-smoke:
	rm -f px-*.json
	$(GO) run ./cmd/diablo run --exec-workers=1 --output=px-s1.json \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	$(GO) run ./cmd/diablo run --exec-workers=4 --output=px-s4.json \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	sed -e '/^  "pexec": {$$/,/^  },$$/d' -e 's/"wall_ms": [0-9]*/"wall_ms": 0/' px-s1.json > px-s1.norm.json
	sed -e '/^  "pexec": {$$/,/^  },$$/d' -e 's/"wall_ms": [0-9]*/"wall_ms": 0/' px-s4.json > px-s4.norm.json
	cmp px-s1.norm.json px-s4.norm.json
	$(GO) run ./cmd/diablo run --exec-workers=1 --output=px-c1.json \
		specs/setup-quorum.yaml specs/workload-contract-10.yaml
	$(GO) run ./cmd/diablo run --exec-workers=4 --output=px-c4.json \
		specs/setup-quorum.yaml specs/workload-contract-10.yaml
	sed -e '/^  "pexec": {$$/,/^  },$$/d' -e 's/"wall_ms": [0-9]*/"wall_ms": 0/' px-c1.json > px-c1.norm.json
	sed -e '/^  "pexec": {$$/,/^  },$$/d' -e 's/"wall_ms": [0-9]*/"wall_ms": 0/' px-c4.json > px-c4.norm.json
	cmp px-c1.norm.json px-c4.norm.json
	rm -f px-*.json

# Causal-span smoke test (DESIGN.md §15): recording spans must be pure
# observation — the result JSON with --spans on is byte-identical (after
# wall_ms normalization) to a run without — and same-seed span files must
# be byte-identical; then the digest and flamegraph renderers must accept
# the file.
spans-smoke:
	rm -f sp-*.json sp-*.jsonl.gz sp-*.folded
	$(GO) run ./cmd/diablo run --output=sp-off.json \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	$(GO) run ./cmd/diablo run --spans=sp-a.jsonl.gz --output=sp-on.json \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	$(GO) run ./cmd/diablo run --spans=sp-b.jsonl.gz \
		specs/setup-quorum-chaos.yaml specs/workload-native-10.yaml
	sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' sp-off.json > sp-off.norm.json
	sed 's/"wall_ms": [0-9]*/"wall_ms": 0/' sp-on.json > sp-on.norm.json
	cmp sp-off.norm.json sp-on.norm.json
	cmp sp-a.jsonl.gz sp-b.jsonl.gz
	$(GO) run ./cmd/diablo-report spans sp-a.jsonl.gz
	$(GO) run ./cmd/diablo-report spans --flame sp-a.jsonl.gz > sp-a.folded
	test -s sp-a.folded
	rm -f sp-*.json sp-*.jsonl.gz sp-*.folded

# Capacity-search smoke test: a 2-bisection knee search on laptop-scale
# quorum must converge (the closed-loop driver behind `diablo-exp --knee`).
knee-smoke:
	$(GO) run ./cmd/diablo-exp --knee --knee-lo=50 --knee-hi=4000 \
		--knee-iters=2 --knee-probe=5s --node-scale=10 quorum

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/custom-blockchain
	$(GO) run ./examples/london-fees
	$(GO) run ./examples/exchange-nasdaq
	$(GO) run ./examples/robustness-sweep

clean:
	rm -f diablo test_output.txt bench_output.txt trace-smoke.jsonl.gz
	rm -rf ck-a ck-b ck-a.json ck-b.json ck-a.norm.json ck-b.norm.json checkpoints
	rm -f adv-a.json adv-b.json adv-a.norm.json adv-b.norm.json
	rm -f px-s1.json px-s4.json px-c1.json px-c4.json px-s1.norm.json px-s4.norm.json px-c1.norm.json px-c4.norm.json
	rm -f sp-off.json sp-on.json sp-off.norm.json sp-on.norm.json sp-a.jsonl.gz sp-b.jsonl.gz sp-a.folded
