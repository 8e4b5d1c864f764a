GO ?= go
# Per-target budget for the coverage-guided fuzz smoke (raise locally for
# a real hunt: make fuzz FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: all build test test-cpus bench-harness bench-record bench-compare bench-pair race vet loc bench bench-all bench-telemetry profile-paper profile-soak cover cover-live check fuzz soak-short ci

all: build test

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide; failures print the shuffle seed for replay.
test: test-cpus
	$(GO) test -shuffle=on ./...

# The concurrent protocols (in-band Apply, ring handoffs, shard flush
# against attribution roll, and the wall-clock engine against manual
# mode) at every core count a box might have. The soak is not here: it
# starts no goroutine. -count=1 defeats the test cache: a cached "ok"
# from a 1-CPU run once hid two red tests here.
test-cpus:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/rtc ./internal/flowtable ./internal/spsc ./internal/sketch ./internal/attrib

# The wire-to-wire benchmark harness is a nested module, so ./... does
# not reach its tests: vet it, run them (a traced smoke of every
# workload against this checkout), then the smoke through the same
# run.sh the benchmark driver uses. Read-only use — see bench/README.md.
# (The root package's TestBenchModuleBuilds runs the vet + test half
# from `go test ./...`, so a deleted internal API fails tier-1 too.)
bench-harness:
	cd bench && $(GO) vet . && $(GO) test .
	bash bench/run.sh -smoke

# The committed benchmark trajectory: one all-workloads run of the
# benchmark (bench/run.sh -out) per seed, the development seed and the
# held-out one, each appended with its environment block (CPU model,
# nproc, GOMAXPROCS, Go, kernel, commit) as one line of
# BENCH_TRAJECTORY.jsonl. Record on a committed tree, so the commit in
# the environment block names the code that was measured.
bench-record:
	@for seed in 0xF100D 0xBE7C4; do \
		bash bench/run.sh -seed $$seed -out .bench_build/record.json && \
		python3 -m json.tool --compact .bench_build/record.json >> BENCH_TRAJECTORY.jsonl || exit 1; \
	done

# This checkout against the committed trajectory: one all-workloads run
# of the benchmark for SEED (decimal or 0x hex), then bench -compare
# against the newest BENCH_TRAJECTORY.jsonl line with the same seed, CPU
# model and nproc (-compare applies the BENCHMARK.json bounds and fails
# on a regression). With no like-hardware line it says so and succeeds.
# Needs python3.
bench-compare:
	@test -n "$(SEED)" || { echo 'usage: make bench-compare SEED=0xF100D'; exit 2; }
	rm -f .bench_build/base.json
	bash bench/run.sh -seed $(SEED) -out .bench_build/now.json
	@python3 -c 'import json; \
		now = json.load(open(".bench_build/now.json")); env = now["environment"]; \
		like = [l for l in open("BENCH_TRAJECTORY.jsonl") if l.strip() and (lambda d: \
			d["seed"] == now["seed"] and d["environment"]["cpu_model"] == env["cpu_model"] and \
			d["environment"]["nproc"] == env["nproc"])(json.loads(l))]; \
		open(".bench_build/base.json", "w").write(like[-1]) if like else \
		print("bench-compare: no BENCH_TRAJECTORY.jsonl line for seed $(SEED) on", \
			repr(env["cpu_model"]), "x", env["nproc"], "- nothing to compare")'
	@if [ -f .bench_build/base.json ]; then \
		bash bench/run.sh -compare .bench_build/base.json .bench_build/now.json; fi

# A claim's measurement: PAIRS alternating pairs of one workload, the
# BASE revision (built from git archive in a temporary directory) first
# in every pair, then this working tree, through bench/run.sh with the
# same seed. Prints each pair, then per end-to-end metric each side's
# median and quartiles and this tree's wins. ARGS go to both runs (CI
# passes --smoke). Needs python3.
PAIRS ?= 10
bench-pair:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" -a -n "$(SEED)" || \
		{ echo 'usage: make bench-pair BASE=<rev> WORKLOAD=<name> SEED=<seed> [PAIRS=10] [ARGS=--smoke]'; exit 2; }
	python3 scripts/bench_pair.py $(BASE) $(WORKLOAD) $(SEED) $(PAIRS) $(ARGS)

# The concurrent protocols (ring handoffs, in-band Apply, the shard
# window flush) are the ones most worth racing; run the whole tree so
# regressions elsewhere surface too.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Go source lines outside the nested bench/ module, non-test and test:
# the size figure a simplification quotes.
loc:
	@printf 'non-test %s\ntest     %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)" \
		"$$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)"

# Substrate microbenches only (-run=^$ skips tests). The root package's
# scenario benches each replay a full experiment per iteration, so bench
# filters them out; bench-all regenerates the paper's tables and figures
# too and takes correspondingly long.
bench:
	$(GO) test -bench=. -benchtime=100x -benchmem -run=^$$ ./internal/...
	$(GO) test -bench='OpenFlow|PacketMarshalParse|FlowTableLookup|CacheIngestEmit|ConcreteInterpreter' \
		-benchtime=100x -benchmem -run=^$$ .

bench-all:
	$(GO) test -bench=. -benchtime=100x -benchmem -run=^$$ ./...

# The observability hot paths: the telemetry primitives the
# instrumentation must not regress. Every 0 allocs/op budget is a
# tier-1 test (the *AllocatesNothing tests beside each benchmark); the
# benchmarks report, they do not gate.
bench-telemetry:
	$(GO) test -bench=. -benchtime=100x -benchmem -run=^$$ ./internal/telemetry/

# The deterministic tier-A soak on its own, in short mode — the
# seconds-scale smoke ci runs on every push.
soak-short:
	$(GO) test -short -count=1 -run 'TestSoak|TestDifferential' ./internal/soak/

# Where the paper stack's time goes: a CPU profile of the Figure 10
# software-switch points (the paper_defense workload's inner loop: the
# testbed with and without FloodGuard at 130 and 500 pps), cumulative,
# this module's frames only. One iteration is ~0.2 s of samples — enough
# to see a 40 % frame, not a 4 % one; raise PROFILE_BENCHTIME (20x) to
# size something small. PROFILE_MODE=alloc profiles allocations instead
# (every one recorded) and prints the top allocation sites by bytes and
# by object count. The test binary and profile stay under PROFILE_DIR,
# outside the tree.
PROFILE_DIR ?= /tmp/fg-profile
PROFILE_BENCHTIME ?= 1x
PROFILE_MODE ?= cpu
cpu-top = $(GO) tool pprof -top -cum -nodecount 60 -focus 'floodguard/' -show 'floodguard/' $(1) $(2)
alloc-tops = for idx in alloc_space alloc_objects; do \
	$(GO) tool pprof -top -nodecount 25 -sample_index=$$idx -show 'floodguard/' $(1) $(2) || exit 1; done
profile-paper:
	mkdir -p $(PROFILE_DIR)
ifeq ($(PROFILE_MODE),alloc)
	$(GO) test -run '^$$' -bench 'Fig10Software$$' -benchtime $(PROFILE_BENCHTIME) -memprofilerate 1 \
		-o $(PROFILE_DIR)/floodguard.test -memprofile $(PROFILE_DIR)/paper.mem .
	$(call alloc-tops,$(PROFILE_DIR)/floodguard.test,$(PROFILE_DIR)/paper.mem)
else
	$(GO) test -run '^$$' -bench 'Fig10Software$$' -benchtime $(PROFILE_BENCHTIME) \
		-o $(PROFILE_DIR)/floodguard.test -cpuprofile $(PROFILE_DIR)/paper.cpu .
	$(call cpu-top,$(PROFILE_DIR)/floodguard.test,$(PROFILE_DIR)/paper.cpu)
endif

# The same two views of the soak_adaptive shape (the guarded
# SoakQuality sub-benchmark: one shard, SYN-proxy tier on, SYN flood):
# a CPU profile, then a separate run recording every allocation, so
# the allocation profiling does not skew the CPU one.
profile-soak:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'SoakQuality$$/^guarded$$' -benchtime $(PROFILE_BENCHTIME) \
		-o $(PROFILE_DIR)/soak.test -cpuprofile $(PROFILE_DIR)/soak.cpu ./internal/soak
	$(call cpu-top,$(PROFILE_DIR)/soak.test,$(PROFILE_DIR)/soak.cpu)
	$(GO) test -run '^$$' -bench 'SoakQuality$$/^guarded$$' -benchtime $(PROFILE_BENCHTIME) -memprofilerate 1 \
		-o $(PROFILE_DIR)/soak.test -memprofile $(PROFILE_DIR)/soak.mem ./internal/soak
	$(call alloc-tops,$(PROFILE_DIR)/soak.test,$(PROFILE_DIR)/soak.mem)

# Coverage over the whole tree; cover.out is the artifact CI uploads.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# What the repository runs never executes, gated. One merged profile
# covers the golden outputs and the soak differential under -coverpkg,
# plus -cover builds of bench/ (its smoke, child processes included),
# fgsim (every experiment, as text and as CSV with a metrics dump; the
# forensics soak, which must exit non-zero), fganalyze (the app analysis
# and both journal queries over that soak's dump) and every example, all
# writing to one GOCOVERDIR. bench/'s own blocks are dropped. It prints
# the unexecuted-statement share and the functions at 0.0 %, then fails
# when a 0 % function is missing from cover-live.allow or an allowlist
# entry names a function that is gone or now executes, so the list can
# only shrink. Entries read `path/file.go FuncName  # reason`; the name is
# the method name without its receiver, as `go tool cover -func` prints
# it. Dotted `Type.Field` entries belong to the struct-field gate (the
# root package's TestStructFieldsAreSet) and are skipped here.
# Everything it writes stays under COVER_LIVE_DIR.
COVER_LIVE_DIR ?= cover-live
cover-live:
	rm -rf $(COVER_LIVE_DIR) && mkdir -p $(COVER_LIVE_DIR)/cov $(COVER_LIVE_DIR)/bin
	$(GO) test -count=1 -covermode=set -coverpkg=./... -coverprofile=$(COVER_LIVE_DIR)/tests.out \
		-run '^(TestGoldenOutputs|TestDifferentialEngineVsBaseline)$$' ./internal/experiments ./internal/soak
	$(GO) build -C bench -cover -covermode=set -coverpkg=floodguard/... -o $(abspath $(COVER_LIVE_DIR))/bin/fgbench .
	$(GO) build -cover -covermode=set -coverpkg=floodguard/... -o $(COVER_LIVE_DIR)/bin/ ./cmd/... ./examples/...
	cd $(COVER_LIVE_DIR) && export GOCOVERDIR=$$PWD/cov && { \
		bin/fgbench -smoke && \
		bin/fgsim all && \
		bin/fgsim -csv -metrics-csv metrics.csv all && \
		! bin/fgsim -seed 0xF100D -duration 4s -flows 50000 \
			-scenario 'chaos=on,replay_pps=3000,loss_ceiling=0.0001' -journal soak.journal soak && \
		bin/fganalyze && \
		bin/fganalyze journal soak.journal && \
		bin/fganalyze journal -explain port=9 soak.journal && \
		for ex in analyzer attack loadbalancer multiswitch quickstart; do bin/$$ex || exit 1; done; \
	} > run.txt 2>&1 || { tail -20 run.txt; exit 1; }
	$(GO) tool covdata textfmt -i=$(COVER_LIVE_DIR)/cov -o=$(COVER_LIVE_DIR)/runs.out
	{ echo 'mode: set'; grep -hv -e '^mode:' -e '^floodguard/bench/' $(COVER_LIVE_DIR)/tests.out $(COVER_LIVE_DIR)/runs.out; } \
		> $(COVER_LIVE_DIR)/live.out
	@awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (b in n) { all += n[b]; if (!(b in hit)) dead += n[b] } \
		printf "unexecuted statements: %d/%d (%.1f %%)\n", dead, all, 100 * dead / all }' $(COVER_LIVE_DIR)/live.out
	@$(GO) tool cover -func=$(COVER_LIVE_DIR)/live.out | \
		awk '$$NF == "0.0%" { sub(/^floodguard\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | \
		sort -u > $(COVER_LIVE_DIR)/dead.txt
	@sed -e 's/#.*//' cover-live.allow | awk 'NF && $$2 !~ /\./ { print $$1, $$2 }' | sort -u > $(COVER_LIVE_DIR)/allow.txt
	@echo "functions at 0.0 %: $$($(GO) tool cover -func=$(COVER_LIVE_DIR)/live.out | grep -c '[[:space:]]0\.0%$$')"
	@comm -23 $(COVER_LIVE_DIR)/dead.txt $(COVER_LIVE_DIR)/allow.txt > $(COVER_LIVE_DIR)/unlisted.txt
	@comm -13 $(COVER_LIVE_DIR)/dead.txt $(COVER_LIVE_DIR)/allow.txt > $(COVER_LIVE_DIR)/stale.txt
	@if [ -s $(COVER_LIVE_DIR)/unlisted.txt ]; then \
		echo "cover-live: functions at 0.0 % missing from cover-live.allow (delete them or list them with a reason):"; \
		cat $(COVER_LIVE_DIR)/unlisted.txt; fi
	@if [ -s $(COVER_LIVE_DIR)/stale.txt ]; then \
		echo "cover-live: cover-live.allow entries that no longer exist or now execute (remove them):"; \
		cat $(COVER_LIVE_DIR)/stale.txt; fi
	@! [ -s $(COVER_LIVE_DIR)/unlisted.txt ] && ! [ -s $(COVER_LIVE_DIR)/stale.txt ]

check: build vet test race

# The wire-facing decoders (netpkt's frame parser and its TCP options),
# the symbolic-execution pipeline, the derivation memo against a cold
# Algorithm 2 run after every mutation, the per-entry derivation against
# the whole enumeration, the delta tracker against a cold
# rebuild-and-diff reference, and the flow classifier and the
# longest-prefix-match index against their linear scans, each under
# coverage-guided fuzzing for FUZZTIME. Any crasher is written to the package's
# testdata/fuzz/ and replays as a plain test case from then on.
fuzz:
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz FuzzTCP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/symexec/ -run '^$$' -fuzz FuzzExplore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/symexec/ -run '^$$' -fuzz FuzzMemoDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/symexec/ -run '^$$' -fuzz FuzzEntryDerive -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzTrackerDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soak/ -run '^$$' -fuzz FuzzParseScenario -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flowtable/ -run '^$$' -fuzz FuzzClassifierOracle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/appir/ -run '^$$' -fuzz FuzzLookupLPM -fuzztime $(FUZZTIME)

# Everything CI runs, in CI's order.
ci: build vet test bench-harness race fuzz
