# CI entry points for the SenSmart reproduction.
#
#   make ci             everything CI runs: format check, vet, build,
#                       race-enabled tests (incl. the trace-driven kernel
#                       suite), coverage floors, and a short differential fuzz
#   make test           race-enabled test suite only
#   make cover          enforce statement-coverage floors on kernel, mcu,
#                       and the profiler
#   make fuzz           every fuzz target for FUZZTIME (default 10s) each: the
#                       differential and adversarial-image campaigns, block
#                       invalidation, snapshot round-trip, trace export
#   make perfbench      the repository benchmark's own tests (nested module
#                       perfbench/: golden gate, negative tests, smoke runs)
#   make bench          run the seven benchmarks profiled vs unprofiled and
#                       regenerate BENCH_profile.json
#   make bench-parallel regenerate BENCH_parallel.json
#   make bench-interp   regenerate BENCH_interp.json (checked vs fast
#                       interpreter throughput) and gate it against the
#                       committed BENCH_interp.baseline.json
#   make bench-diff     diff BENCH_interp.json against the committed
#                       baseline with the schema-aware comparator; fails on
#                       out-of-band regressions
#   make faultcampaign  short race-enabled fault-injection campaign smoke:
#                       runs the seeded campaign over the full benchmark
#                       suite and writes a report to a scratch path
#   make checkpoint     race-enabled checkpoint/restore smoke: snapshot a
#                       running two-task workload mid-run with sensmart-sim,
#                       then restore the blob and run it to completion
#   make energy         race-enabled energy smoke: short -exp energy run
#                       (kernel benchmarks + baselines on the joules axis)
#                       to a scratch path, verdict table printed
#   make debug          race-enabled time-travel smoke: scripted sensmart-sim
#                       -debug seek+dump session, a campaign run that must
#                       embed forensic reports, and a comparator pass over
#                       the forensic-bearing output

GO ?= go
FUZZTIME ?= 10s

# Statement-coverage floors for the cycle-accounting core. Measured 83.1%
# (kernel) and 75.8% (mcu) when introduced; floors sit a few points below so
# incidental drift doesn't break CI, while gutting the trace/cost suites does.
# The profiler floor is the ISSUE-mandated 75% (measured 93.6% when
# introduced).
KERNEL_COVER_FLOOR = 78
MCU_COVER_FLOOR = 70
PROFILE_COVER_FLOOR = 75
TELEMETRY_COVER_FLOOR = 75
# Campaign-engine floor is the ISSUE-mandated 75% (measured 89.7% when
# introduced).
FAULTINJECT_COVER_FLOOR = 75
# Snapshot-codec floor is the ISSUE-mandated 75% (measured 99.5% when
# introduced: the round-trip, rejection, golden, and fuzz suites cover the
# whole codec).
SNAPSHOT_COVER_FLOOR = 75
# Energy-ledger and trace floors are the ISSUE-mandated 75% (measured 100%
# and 93.6% when introduced).
ENERGY_COVER_FLOOR = 75
TRACE_COVER_FLOOR = 75
# Time-travel debugger floor is the ISSUE-mandated 75% (measured 87.2% when
# introduced).
TIMETRAVEL_COVER_FLOOR = 75

.PHONY: ci build vet test cover fmt-check fuzz perfbench bench bench-parallel bench-interp bench-diff faultcampaign checkpoint energy debug

ci: fmt-check vet build test cover fuzz perfbench bench-interp bench-diff faultcampaign checkpoint energy debug

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | awk '{for(i=1;i<=NF;i++) if ($$i=="coverage:") print $$(i+1)}' | tr -d '%'); \
		if [ -z "$$pct" ]; then echo "$$1: no coverage reported"; exit 1; fi; \
		echo "$$1 coverage: $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' \
			|| { echo "$$1 coverage $$pct% fell below the $$2% floor"; exit 1; }; \
	}; \
	check ./internal/kernel $(KERNEL_COVER_FLOOR); \
	check ./internal/mcu $(MCU_COVER_FLOOR); \
	check ./internal/profile $(PROFILE_COVER_FLOOR); \
	check ./internal/telemetry $(TELEMETRY_COVER_FLOOR); \
	check ./internal/faultinject $(FAULTINJECT_COVER_FLOOR); \
	check ./internal/snapshot $(SNAPSHOT_COVER_FLOOR); \
	check ./internal/energy $(ENERGY_COVER_FLOOR); \
	check ./internal/trace $(TRACE_COVER_FLOOR); \
	check ./internal/timetravel $(TIMETRAVEL_COVER_FLOOR)

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Each entry is package:target; `go test -fuzz` takes one target at a time.
FUZZ_TARGETS = \
	./internal/experiment:FuzzDifferential \
	./internal/experiment:FuzzAdversarialImage \
	./internal/mcu:FuzzBlockInvalidation \
	./internal/snapshot:FuzzSnapshotRoundTrip \
	./internal/trace:FuzzTraceExport

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run "^$$fn\$$" -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME); \
	done

# perfbench/ is a nested module, so the root `go test ./...` never reaches
# its tests.
perfbench:
	cd perfbench && $(GO) test .

bench:
	$(GO) run ./cmd/sensmart-bench -exp profilebench -out BENCH_profile.json
	$(GO) run ./cmd/sensmart-bench -exp energy -activations 300 -out BENCH_energy.json
	$(MAKE) bench-interp

bench-parallel:
	$(GO) run ./cmd/sensmart-bench -exp benchparallel -parallel 4 -activations 40 -out BENCH_parallel.json

# The interp gate is host-relative where it can be: the suite-aggregate
# fast/checked speedup must stay >= 1.3x, block translation must keep fused
# mode >= 1.05x over the fast loop, and the end-to-end checked/fused figure
# must stay >= 1.5x (the floor raised when translation landed). The armed
# telemetry/energy passes must stay under 1% overhead, and a wide tolerance
# band on the absolute MIPS floor keeps a slower CI host from flaking the
# build.
bench-interp:
	$(GO) run ./cmd/sensmart-bench -exp interp -reps 5 -out BENCH_interp.json -baseline BENCH_interp.baseline.json -min-speedup 1.3 -min-fused 1.05 -min-total 1.5

# Schema-aware cross-run diff of the freshly generated interp numbers
# against the committed baseline. The 60% band is deliberately wide for the
# same reason bench-interp's MIPS tolerance is: absolute wall-clock depends
# on the host, and the hard invariants (cycle identity, suite speedup,
# armed-telemetry overhead) are gated by bench-interp itself.
bench-diff:
	$(GO) run ./cmd/sensmart-bench -exp compare -old BENCH_interp.baseline.json -new BENCH_interp.json -tolerance 60

# Race-enabled campaign smoke: 3 trials per benchmark keeps it a few seconds
# while still exercising every injection kind and the full verdict pipeline.
# The golden table (20 trials per benchmark) is pinned by
# TestGoldenContainmentTable in `make test`; this target proves the CLI path
# end to end under -race.
faultcampaign:
	$(GO) run -race ./cmd/sensmart-bench -exp faultcampaign -seed 1 -trials 3 -out /tmp/BENCH_faultcampaign_smoke.json

# Race-enabled CLI checkpoint/restore smoke: snapshot a two-task workload
# mid-run, then resume the written blob to completion. The full resume-
# identity matrix (all seven benchmarks, every checkpoint kind, serial and
# pooled) is pinned by TestResumeIdentity* in `make test`; this target proves
# the sim's -checkpoint/-restore path end to end under -race.
checkpoint:
	$(GO) run -race ./cmd/sensmart-sim -cycles 40000000 -copies 2 -stats \
		-checkpoint-at 500000 -checkpoint /tmp/sensmart_checkpoint_smoke.ssnp \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s
	$(GO) run -race ./cmd/sensmart-sim -cycles 40000000 -copies 2 -stats \
		-restore /tmp/sensmart_checkpoint_smoke.ssnp \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s

# Race-enabled energy smoke: a short joules-axis run (10 activations instead
# of the committed file's 300) to a scratch path. The byte-identity of the
# full run between serial and parallel pools is pinned by
# TestEnergyBenchDeterministic in `make test`; this target proves the CLI
# path and the baseline-ordering verdict end to end under -race.
energy:
	$(GO) run -race ./cmd/sensmart-bench -exp energy -activations 10 -quiet \
		-out /tmp/BENCH_energy_smoke.json

# Race-enabled time-travel smoke. First a scripted -debug session: record a
# two-task workload under the checkpoint ring, then seek to the boot state, a
# boot-fallback cycle, and a ring-restored cycle, dumping every section kind.
# Then a short campaign whose output must embed at least one forensic report
# (seed 2 produces non-contained verdicts), self-compared through the
# schema-aware comparator so the forensic_coverage row is exercised end to
# end. The seek-identity matrix itself is pinned by TestSeekIdentity* in
# `make test`.
debug:
	$(GO) run -race ./cmd/sensmart-sim -debug -cycles 2000000 -copies 2 \
		-ring 4 -ring-every 200000 -at 0 -at 600000 -at 1999999 \
		-dump regs,stack,mem:0x100+16,tasks,energy,events \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s
	$(GO) run -race ./cmd/sensmart-bench -exp faultcampaign -seed 2 -trials 3 \
		-out /tmp/BENCH_debug_forensics.json
	grep -q '"forensics"' /tmp/BENCH_debug_forensics.json
	$(GO) run ./cmd/sensmart-bench -exp compare -old /tmp/BENCH_debug_forensics.json \
		-new /tmp/BENCH_debug_forensics.json -tolerance 5
