GO ?= go
# Per-target budget for the coverage-guided fuzz smoke (raise locally for
# a real hunt: make fuzz FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: all build test test-cpus bench-harness race vet loc bench bench-all bench-telemetry profile-paper profile-soak cover cover-live check fuzz soak-short ci

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

# What the measured paths never execute: the golden outputs and the
# soak differential under -coverpkg, plus a -cover build of bench/
# running its smoke (child processes included, through GOCOVERDIR),
# merged into one profile without bench/'s own blocks. Prints the
# functions at 0.0 %. cmd/ and examples/ are not in the profile, so a
# 0 % line is a lead to grep, not a verdict. Everything it writes stays
# under COVER_LIVE_DIR.
COVER_LIVE_DIR ?= cover-live
cover-live:
	rm -rf $(COVER_LIVE_DIR) && mkdir -p $(COVER_LIVE_DIR)/bench
	$(GO) test -count=1 -covermode=set -coverpkg=./... -coverprofile=$(COVER_LIVE_DIR)/tests.out \
		-run '^(TestGoldenOutputs|TestDifferentialEngineVsBaseline)$$' ./internal/experiments ./internal/soak
	$(GO) build -C bench -cover -covermode=set -coverpkg=floodguard/... -o $(abspath $(COVER_LIVE_DIR))/fgbench .
	GOCOVERDIR=$(abspath $(COVER_LIVE_DIR))/bench $(COVER_LIVE_DIR)/fgbench -smoke > $(COVER_LIVE_DIR)/smoke.txt
	$(GO) tool covdata textfmt -i=$(COVER_LIVE_DIR)/bench -o=$(COVER_LIVE_DIR)/bench.out
	{ echo 'mode: set'; grep -hv -e '^mode:' -e '^floodguard/bench/' $(COVER_LIVE_DIR)/tests.out $(COVER_LIVE_DIR)/bench.out; } \
		> $(COVER_LIVE_DIR)/live.out
	$(GO) tool cover -func=$(COVER_LIVE_DIR)/live.out | grep -E '[[:space:]]0\.0%$$' || true

check: build vet test race

# The wire-facing decoders (frames, TCP options, OpenFlow), the
# symbolic-execution pipeline, the
# derivation memo against a cold Algorithm 2 run after every mutation, the
# delta tracker against a cold rebuild-and-diff reference, and
# the flow classifier against its linear oracle, each under coverage-guided
# fuzzing for FUZZTIME. Any crasher is written to the package's
# testdata/fuzz/ and replays as a plain test case from then on.
fuzz:
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz FuzzTCP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/openflow/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/symexec/ -run '^$$' -fuzz FuzzExplore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/symexec/ -run '^$$' -fuzz FuzzMemoDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzTrackerDelta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soak/ -run '^$$' -fuzz FuzzParseScenario -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flowtable/ -run '^$$' -fuzz FuzzClassifierOracle -fuzztime $(FUZZTIME)

# Everything CI runs, in CI's order.
ci: build vet test bench-harness race fuzz
