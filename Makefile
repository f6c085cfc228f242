# Developer smoke gate. `make check` is what a PR must keep green:
# gofmt-clean sources, the viplint invariant passes (determinism,
# durability, attribution — see DESIGN.md §11), static vetting, a full
# build, the race-enabled short test suite, a bounded chaos sweep
# (seeded fault schedules against the persistence layer, conservation
# invariants checked end to end), one iteration of the engine
# microbenchmarks (which self-verify that the batched, fused-trace, and
# per-op paths agree, and that the flattened epoch index matches the
# backward scan), and the benchmark module's own vet and tests.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt lint vet build test race-smoke chaos-smoke fleet-smoke chaos-nightly bench-smoke bench-module bench loc

check: fmt lint vet build test race-smoke chaos-smoke fleet-smoke bench-smoke bench-module

# Fails on any file gofmt would rewrite. The viplint fixtures under
# internal/lint/testdata are exempt: their layout is pinned by their
# want-comments, and gofmt would re-indent suppress_edge.go.
fmt:
	@out=$$($(GOFMT) -l . | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# viplint: the repo's own go/analysis-style pass suite (cmd/viplint).
# Exits nonzero on any unsuppressed finding; suppressions require
# `//viplint:allow <pass> <reason>`. -stats appends the per-pass
# finding-count/wall-time table so slow passes surface in CI logs.
lint:
	$(GO) run ./cmd/viplint -stats ./...

# Focused race gate on the packages whose tests run simulations side by
# side: the chaos harness (parallel fleet and SMP seeds, and Repeat's
# per-seed workers), internal/core's parallel chaos subtests, and the
# fleet store, whose reference reader decodes journals on goroutines. Any
# state two simulated machines share by accident shows up here as a
# race, whichever package holds it. internal/oprofile (the per-CPU
# driver shards and the daemon that folds them on its own thread) and
# internal/cpu (the cores whose banks feed the shards) ride along.
# Caching is defeated, so `make check` exercises them fresh even when
# the cached `test` target is a no-op.
race-smoke:
	$(GO) test -race -short -count=1 ./internal/fleet/ ./internal/harness/ ./internal/core/ ./internal/oprofile/ ./internal/cpu/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race -short ./...

# Bounded seed sweep of the chaos harness: 25 seeds — the first eight
# run each scenario in isolation (daemon crash, ENOSPC, torn map, torn
# samples, VM kill, rename fault, dir damage, read fault), the rest
# draw composed schedules of 1-3 scenarios — plus the scripted
# crash/latency/rename/listing-damage schedules. Every seeded run ends
# with the recovery pass and re-checks conservation and visibility
# after it.
chaos-smoke:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/core/

# Bounded seed sweep of the fleet chaos harness (internal/harness):
# 25+ seeds of 8-10 hosts each on 1/2/4-core collector machines — the
# early seeds run each network or disk scenario in isolation (drop,
# dup, reorder, latency, partition, collector crash, ENOSPC, torn
# journal, torn spill, sender kill, snapshot rename, dir damage, read
# fault, shard kill, kill-mid-compaction, partition-mid-map-replication),
# the rest draw composed schedules. Every seed asserts fleet-level
# conservation (per-host oracles vs live and replayed aggregates, key
# by key), zero misattribution, complete code-map replication on clean
# runs, windowed-query partition, and destructive-faults <=>
# degraded-verdict. The second leg is the compaction-crash gate: the
# fault-point sweep kills a compaction pass at every single mutation
# and proves the store rereads identically, plus the windowed-query
# oracle over compacted generations, the store scan checked against
# the readers it replaced on crash-built stores and at every fault
# point, the damaged-manifest path, the supervisor's failure paths
# (failed restarts, backoff gates, a shard and the compactor giving
# up), the one record encoder against the five encoders it replaced
# (TestEncodeMatchesReferenceQuick, 100 random records), the
# encoding's canonical form that compaction's frame copy rests on
# (TestEncodeIsCanonicalQuick: a decoded frame re-encodes to itself,
# 100 random records), and the count-run record against the map-based
# code it replaced, 100 random cases each: the run decoder against the
# map decoder (TestCountRunMatchesMapDecodeQuick: shuffled, repeated,
# zero-count, CRLF, blank and malformed lines), the aggregate snapshot
# against the map fold and key sort (TestSnapshotMatchesReferenceQuick),
# the in-place header walk against bytes.Fields
# (TestParseHeaderMatchesReferenceQuick: ASCII and Unicode white space,
# missing '=', bad and overflowing numbers, unknown kinds) and the
# conservation check against its map-based form
# (TestConservationMatchesReferenceQuick). The store-scan leg also
# holds the frame-copying pass to the decode-and-re-encode pass byte
# for byte, and every fleet chaos seed checks that each stored frame
# decodes and re-encodes to itself (fleet.CheckStoreFrames). The third leg renders 200+ windows
# of a 16-host crash cell through the fleet view and checks each
# against the per-render scan that the view's fold replaced.
fleet-smoke:
	$(GO) test -race -run 'TestFleetChaos$$' -count=1 ./internal/harness/
	$(GO) test -race -run 'TestCompactionFaultPointSweep|TestWindowedQueryOracle|TestFleetMapReplication|TestStoreScanMatchesReference|TestDamagedManifest|TestSuperviseShardFailurePaths|TestCompactorGivesUpWithoutFailingService|TestEncodeMatchesReferenceQuick|TestEncodeIsCanonicalQuick|TestCountRunMatchesMapDecodeQuick|TestSnapshotMatchesReferenceQuick|TestParseHeaderMatchesReferenceQuick|TestConservationMatchesReferenceQuick' -count=1 ./internal/fleet/
	$(GO) test -race -run 'TestFleetRenderMatchesScan$$' -count=1 .

# Wide sweeps (hundreds of seeds or programs, minutes). Out of
# `make check` by design: run them nightly or before cutting a release.
# Covers the per-host persistence chaos suite, the fleet network-fault
# suite, the fused trace-replay oracle over 500 random programs
# (`make check` runs 25), the code-map line reader against the
# fmt.Sscanf reader it replaced over 20000 generated entries and their
# mutated lines (`make check` runs 100), the recycling heap against
# the non-recycling reference collector over 5000 random alloc/churn/
# collect schedules (`make check` runs 100), the recency-ordered
# cache hierarchy against the stamp-LRU reference cache over 5000
# random geometries and access/run/batch/deferral/flush schedules
# (`make check` runs 100), the cpu engine oracles (streaming,
# strided-memory, scattered-operand and fused-stretch batches against
# the per-op core) over 3000 random streams each (`make check` runs 60),
# and the fault stream against the reference injectors it replaced
# (TestFaultStreamMatchesReferenceQuick: write, rename, read and listing
# draws and the composed-plan arbitration; TestNetworkMatchesReferenceQuick:
# the network's sends) over 20000 random plans and operation sequences
# each (`make check` runs 100), the fleet record encoder against the
# five encoders it replaced (TestEncodeMatchesReferenceQuick: delta,
# map, ack and restart records byte for byte) and its canonical form
# (TestEncodeIsCanonicalQuick: a decoded delta, map or restart frame
# re-encodes to itself) over 20000 random records each (`make check`
# runs 100), the count-run record against the map-based code it
# replaced (TestCountRunMatchesMapDecodeQuick: the run decoder against
# the map decoder; TestSnapshotMatchesReferenceQuick: the aggregate
# snapshot; TestParseHeaderMatchesReferenceQuick: the header walk
# against bytes.Fields; TestConservationMatchesReferenceQuick: the
# conservation check) over 20000 random cases each (`make check` runs
# 100), and the multi-VM mode oracle
# (TestMultiVMModesAgree: fused replay, DisableTrace and the per-op core
# on 2-4 concurrent VMs over 2 or 4 cores must agree on every core's
# cycles and instructions, the NMIs and the report bytes) over the
# smp4-mix shape and 10 seeded shapes (`make check` runs the smp4-mix
# shape and 1 more).
chaos-nightly:
	VIPROF_CHAOS_SEEDS=500 $(GO) test -race -run 'TestChaosNightly' -count=1 -timeout 30m ./internal/core/
	VIPROF_FLEET_SEEDS=300 $(GO) test -race -run 'TestFleetChaosNightly' -count=1 -timeout 30m ./internal/harness/
	$(GO) test -race -run 'TestTraceReplayMatchesPerOpQuick$$' -count=1 -timeout 30m ./internal/jvm/ -args -quickchecks=2000
	$(GO) test -race -run 'TestMapLineCodecMatchesSscanf$$' -count=1 -timeout 30m ./internal/core/ -args -quickchecks=20000
	$(GO) test -race -run 'TestHeapMatchesReferenceQuick$$' -count=1 -timeout 30m ./internal/jvm/gc/ -args -quickchecks=5000
	$(GO) test -race -run 'TestCacheMatchesStampReferenceQuick$$' -count=1 ./internal/cache/ -args -quickchecks=5000
	$(GO) test -race -run 'TestBatchDeterminismQuick$$|TestMemBatchDeterminismQuick$$|TestExecScatterDeterminismQuick$$|TestBatchRunDeterminismQuick$$' -count=1 -timeout 30m ./internal/cpu/ -args -quickchecks=5000
	$(GO) test -race -run 'TestFaultStreamMatchesReferenceQuick$$' -count=1 -timeout 30m ./internal/kernel/ -args -quickchecks=20000
	$(GO) test -race -run 'TestNetworkMatchesReferenceQuick$$' -count=1 -timeout 30m ./internal/fleet/ -args -quickchecks=20000
	$(GO) test -race -run 'TestEncodeMatchesReferenceQuick$$|TestEncodeIsCanonicalQuick$$' -count=1 -timeout 30m ./internal/fleet/ -args -quickchecks=20000
	$(GO) test -race -run 'TestCountRunMatchesMapDecodeQuick$$|TestSnapshotMatchesReferenceQuick$$|TestParseHeaderMatchesReferenceQuick$$|TestConservationMatchesReferenceQuick$$' -count=1 -timeout 30m ./internal/fleet/ -args -quickchecks=20000
	$(GO) test -race -run 'TestMultiVMModesAgree$$' -count=1 -timeout 30m . -args -quickchecks=500

# One race-enabled iteration of each engine microbenchmark. Each fails
# when its fast path and its reference path disagree: batched vs per-op
# instruction and memory streams, fused trace replay vs per-op dispatch,
# the flattened epoch index vs the backward scan. The SMP and fleet
# workloads run under -race in `test` (TestSMPBenchScaling,
# TestFleetBenchConserves), not here.
bench-smoke:
	$(GO) test -race -run '^$$' -bench 'BenchmarkExecBatch|BenchmarkExecMemBatch|BenchmarkTraceBatch|BenchmarkEpochResolveIndexed' -benchtime 1x .

# bench/ is a module of its own, so neither `go test ./...` nor the
# targets above reach it. This leg vets it and runs its short tests,
# among them the check that the metric names it emits match
# BENCHMARK.json.
bench-module:
	cd bench && $(GO) vet . && $(GO) test -short -count=1 .

# Full reduced-scale benchmark sweep (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x .

# Go line counts, informational: non-test sources, then all sources
# with tests. Both count the bench/ module and leave out the viplint
# fixtures under internal/lint/testdata.
loc:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/testdata/*' | xargs cat | wc -l)"
	@echo "all Go lines: $$(find . -name '*.go' ! -path './internal/lint/testdata/*' | xargs cat | wc -l)"
