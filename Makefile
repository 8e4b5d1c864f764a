GO ?= go
# Per-target budget for the coverage-guided fuzz smoke (raise locally for
# a real hunt: make fuzz FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: all build test test-cpus bench-harness race vet bench bench-all bench-telemetry bench-json bench-json5 bench-json6 bench-json7 bench-json8 bench-json9 bench-json10 cover check fuzz soak-short ci

all: build test

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide; failures print the shuffle seed for replay.
test: test-cpus
	$(GO) test -shuffle=on ./...

# The concurrent protocols (in-band Apply, ring handoffs, shard flush
# against attribution roll) at every core count a box might have.
# -count=1 defeats the test cache: a cached "ok" from a 1-CPU run once
# hid two red tests here.
test-cpus:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/rtc ./internal/flowtable ./internal/spsc ./internal/sketch ./internal/attrib

# The wire-to-wire benchmark harness is a nested module, so ./... does
# not reach it: vet it and run its own tests (a traced smoke of every
# workload against this checkout). Read-only use — see bench/README.md.
bench-harness:
	cd bench && $(GO) vet . && $(GO) test .

# The pooled marshal and batched sideband paths are the ones most worth
# racing; run the whole tree so regressions elsewhere surface too.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

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

# The observability hot paths: telemetry primitives plus the sideband
# replay framing the instrumentation must not regress (0 allocs/op
# budget). The flow-table lookup's 0-alloc witness is a tier-1 test now
# (flowtable.TestLookupAllocatesNothing).
bench-telemetry:
	$(GO) test -bench=. -benchtime=100x -benchmem -run=^$$ ./internal/telemetry/
	$(GO) test -bench=WriteReplay -benchtime=100x -benchmem -run=^$$ ./internal/dpcproto/

# The PR-4 performance families rendered as BENCH_4.json with
# regression gates: the sideband replay framing must stay 0-alloc, the
# warm memo must stay an order of magnitude under the cold derive, and
# the 1000-path sequential derive has an absolute ceiling generous
# enough for slow CI machines (~6x the reference box).
bench-json:
	@rm -f bench4.txt
	$(GO) test -bench=BenchmarkDeriveRules -benchtime=20x -benchmem -run=^$$ . | tee -a bench4.txt
	$(GO) test -bench=WriteReplay -benchtime=100x -benchmem -run=^$$ ./internal/dpcproto/ | tee -a bench4.txt
	$(GO) test -bench=Concretize -benchtime=100x -benchmem -run=^$$ ./internal/solver/ | tee -a bench4.txt
	$(GO) run ./cmd/benchjson -in bench4.txt -out BENCH_4.json \
		-gate 'BenchmarkWriteReplay/write-replay(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkDeriveRules/paths-1000/workers-1(-|$$):ns_per_op<=60000000' \
		-gate 'BenchmarkDeriveRulesMemo/warm/paths-1000(-|$$):ns_per_op<=6000000' \
		-gate 'BenchmarkConcretize/entries=1024(-|$$):allocs_per_op<=16'

# The PR-5 attribution hot paths rendered as BENCH_5.json: the per-packet
# sketch Update/Estimate and the heavy-hitter Observe run on the sampled
# packet_in path, so all carry a 0 allocs/op budget; the extended replay
# framing must stay allocation-free too.
bench-json5:
	@rm -f bench5.txt
	$(GO) test -bench=. -benchtime=10000x -benchmem -run=^$$ ./internal/sketch/ | tee -a bench5.txt
	$(GO) test -bench=WriteReplay -benchtime=100x -benchmem -run=^$$ ./internal/dpcproto/ | tee -a bench5.txt
	$(GO) run ./cmd/benchjson -in bench5.txt -out BENCH_5.json \
		-gate 'BenchmarkCountMinUpdate(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkCountMinEstimate(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkSpaceSavingObserveTracked(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkSpaceSavingObserveChurn(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkWriteReplay/write-replay(-|$$):allocs_per_op<=0'

# The PR-6 run-to-completion engine rendered as BENCH_6.json: the SPSC
# ring, the per-packet shard body (0 allocs AND 0 mutex-profile waits —
# the zero-lock witness), the cache replay hop, and the whole-pipeline
# sustained-pps macro benchmark. The pps floor and p99 ceiling are
# deliberately generous so slow single-core CI boxes pass; the
# architectural >=2x speedup self-asserts inside the macro bench only on
# machines with >=4 CPUs.
bench-json6:
	@rm -f bench6.txt
	$(GO) test -bench='RingPushPop|RingBatch64' -benchtime=10000x -benchmem -run=^$$ ./internal/spsc/ | tee -a bench6.txt
	$(GO) test -bench='ShardPerPacket|RingHandoff' -benchtime=10000x -benchmem -run=^$$ ./internal/rtc/ | tee -a bench6.txt
	$(GO) test -bench=CacheReplay -benchtime=10000x -benchmem -run=^$$ ./internal/dpcache/ | tee -a bench6.txt
	$(GO) test -bench='SustainedPPS$$' -benchtime=1x -run=^$$ ./internal/experiments/ | tee -a bench6.txt
	$(GO) run ./cmd/benchjson -in bench6.txt -out BENCH_6.json \
		-gate 'BenchmarkRingPushPop(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkRingBatch64(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkShardPerPacket(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkShardPerPacket(-|$$):mutexwaits<=0' \
		-gate 'BenchmarkRingHandoff(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkCacheReplay/no-hinter(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkCacheReplay/hinter(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkSustainedPPS/mode=sharded(-|$$):pps>=50000' \
		-gate 'BenchmarkSustainedPPS/mode=sharded(-|$$):p99ms<=250'

# The PR-7 adversarial-soak quality tier rendered as BENCH_7.json: one
# full soak (all four adaptive attacker profiles + seeded chaos) per
# iteration, gated on the run's quality numbers — zero invariant
# violations, benign collateral loss under the 1% ceiling, every bounded
# structure within budget, every above-floor attacker blamed, and a
# generous wall-clock throughput floor for slow CI boxes.
bench-json7:
	@rm -f bench7.txt
	$(GO) test -bench=SoakQuality -benchtime=3x -benchmem -run=^$$ ./internal/soak/ | tee bench7.txt
	$(GO) run ./cmd/benchjson -in bench7.txt -out BENCH_7.json \
		-gate 'BenchmarkSoakQuality(-|$$):violations<=0' \
		-gate 'BenchmarkSoakQuality(-|$$):benign_loss<=0.01' \
		-gate 'BenchmarkSoakQuality(-|$$):mem_frac<=1' \
		-gate 'BenchmarkSoakQuality(-|$$):detected>=1' \
		-gate 'BenchmarkSoakQuality(-|$$):pps>=50000'

# The PR-8 decision-forensics tier rendered as BENCH_8.json: the raw
# journal append, the instrumented shard body (journal-on must stay
# 0 allocs and lock-free like the bare PR-6 path), and the macro
# journal-on/off sustained-pps delta — forensics may cost at most 2%
# of sustained throughput.
bench-json8:
	@rm -f bench8.txt
	$(GO) test -bench=JournalAppend -benchtime=10000x -benchmem -run=^$$ ./internal/journal/ | tee -a bench8.txt
	$(GO) test -bench=JournalShardBody -benchtime=10000x -benchmem -run=^$$ ./internal/rtc/ | tee -a bench8.txt
	$(GO) test -bench=JournalPPSDelta -benchtime=3x -run=^$$ ./internal/experiments/ | tee -a bench8.txt
	$(GO) run ./cmd/benchjson -in bench8.txt -out BENCH_8.json \
		-gate 'BenchmarkJournalAppend(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkJournalShardBody/journal-on(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkJournalShardBody/journal-on(-|$$):mutexwaits<=0' \
		-gate 'BenchmarkJournalPPSDelta(-|$$):pps_ratio>=0.98'

# The PR-9 lock-free rule-application tier rendered as BENCH_9.json:
# the shard body under in-band rule churn (0 allocs AND 0 mutex-profile
# contention while flow_mods delete and re-add a served rule every 64
# packets — the witness that Apply never makes the serving path take a
# writer lock), plus the mixed lookup+Apply macro benchmark: sustained
# pps with 1000 flow_mods/s of churn. The pps floor, p99 ceiling, and
# flow_mod floor are generous for slow CI boxes.
bench-json9:
	@rm -f bench9.txt
	$(GO) test -bench=ShardChurnBody -benchtime=200000x -benchmem -run=^$$ ./internal/rtc/ | tee -a bench9.txt
	$(GO) test -bench=SustainedPPSChurn -benchtime=1x -run=^$$ ./internal/experiments/ | tee -a bench9.txt
	$(GO) run ./cmd/benchjson -in bench9.txt -out BENCH_9.json \
		-gate 'BenchmarkShardChurnBody(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkShardChurnBody(-|$$):mutexwaits<=0' \
		-gate 'BenchmarkShardChurnBody(-|$$):flowmods>=1' \
		-gate 'BenchmarkSustainedPPSChurn/mode=sharded(-|$$):pps>=50000' \
		-gate 'BenchmarkSustainedPPSChurn/mode=sharded(-|$$):p99ms<=250' \
		-gate 'BenchmarkSustainedPPSChurn/mode=sharded(-|$$):flowmods>=100'

# The PR-10 SYN-proxy tier rendered as BENCH_10.json: the stateless
# cookie encode/validate and the sharded connection-table lookup all sit
# on the per-SYN data-plane path, so each carries a 0 allocs/op budget;
# the full guard Process (parse + verdict + table walk) must stay
# allocation-free too.
bench-json10:
	@rm -f bench10.txt
	$(GO) test -bench='CookieEncode|CookieValidate|ConnTableLookup|GuardProcess' \
		-benchtime=10000x -benchmem -run=^$$ ./internal/tcpguard/ | tee bench10.txt
	$(GO) run ./cmd/benchjson -in bench10.txt -out BENCH_10.json \
		-gate 'BenchmarkCookieEncode(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkCookieValidate(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkConnTableLookup(-|$$):allocs_per_op<=0' \
		-gate 'BenchmarkGuardProcess(-|$$):allocs_per_op<=0'

# The deterministic tier-A soak on its own, in short mode — the
# seconds-scale smoke ci runs on every push.
soak-short:
	$(GO) test -short -count=1 -run 'TestSoak|TestDifferential' ./internal/soak/

# Coverage over the whole tree; cover.out is the artifact CI uploads.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

check: build vet test race

# The three wire-facing decoders, the symbolic-execution pipeline and the
# flow classifier against its linear oracle, each under coverage-guided
# fuzzing for FUZZTIME. Any crasher is written to the package's
# testdata/fuzz/ and replays as a plain test case from then on.
fuzz:
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz FuzzParse$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/netpkt/ -run '^$$' -fuzz FuzzTCP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/openflow/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dpcproto/ -run '^$$' -fuzz FuzzRead -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dpcproto/ -run '^$$' -fuzz FuzzReplayHintRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/symexec/ -run '^$$' -fuzz FuzzExplore -fuzztime $(FUZZTIME)
	$(GO) test ./internal/soak/ -run '^$$' -fuzz FuzzParseScenario -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flowtable/ -run '^$$' -fuzz FuzzClassifierOracle -fuzztime $(FUZZTIME)

# Everything CI runs, in CI's order.
ci: build vet test bench-harness race fuzz
