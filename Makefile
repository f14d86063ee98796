# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race fmt-check lint lint-vettool bench bench-compare bench-replay bench-module cluster examples fullscale-smoke fullgrid-smoke fullgrid-resume-smoke fuzz check

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every test under the race detector, in two runs so that
# neither nears the 30-minute timeout on a 2-vCPU machine: first every
# package with the four internal/exp tests that take longest under race
# skipped, then those four alone. On 2 vCPUs the runs took 8 and 6
# minutes on an idle machine; the four tests took 13 minutes on a busy
# one (per-test times in CHANGES.md). CI's race steps run the same pair.
RACE_HEAVY := ^(TestFig7MissesGrowWithCoresForWSOnly|TestScratchFastPathEquivalence|TestFaultGoldenDeterminism|TestFullGridEquivalence)$$
race:
	$(GO) test -race -timeout 30m -skip '$(RACE_HEAVY)' ./...
	$(GO) test -race -timeout 30m -run '$(RACE_HEAVY)' ./internal/exp

# fmt-check fails, listing the files, when gofmt would reformat any Go
# file git tracks; untracked build directories such as .bench_build/ are
# not scanned.
fmt-check:
	@files=`gofmt -l $$(git ls-files '*.go')`; \
	if [ -n "$$files" ]; then echo "gofmt: these files need formatting:"; echo "$$files"; exit 1; fi

# lint runs the repository's own static-analysis suite (see internal/lint
# and DESIGN.md §6). A finding is a build failure; allowlist intentional
# exceptions with `//schedlint:ignore <analyzer> <reason>` — the
# unusedignore analyzer deletes-or-justifies every such entry.
lint:
	$(GO) run ./cmd/schedlint ./...

# lint-vettool exercises the same analyzers through the go vet driver,
# which caches per-package results in the build cache; cross-package
# taint summaries travel through vet's facts files.
lint-vettool:
	$(GO) build -o $(CURDIR)/bin/schedlint ./cmd/schedlint
	$(GO) vet -vettool=$(CURDIR)/bin/schedlint ./...

# lint-json emits the findings as a JSON array (file, line, analyzer,
# message, and simtime taint traces); CI uploads bin/schedlint.json as an
# artifact on every run.
lint-json:
	@mkdir -p bin
	$(GO) run ./cmd/schedlint -json ./... | tee bin/schedlint.json

# lint-new reports only findings absent from the committed baseline
# (.schedlint-baseline.json, currently empty — the tree is clean). Useful
# on long-running branches; regenerate the baseline from `make lint-json`
# output when an accepted debt is deliberately carried.
lint-new:
	$(GO) run ./cmd/schedlint -baseline .schedlint-baseline.json ./...

bench:
	$(GO) run ./cmd/schedbench -benchjson BENCH_sim.json

# bench-compare diffs two benchmark reports and fails on any figure that
# regressed by more than 10% (see cmd/benchdiff for the direction rules).
# Default: the committed BENCH_sim.json against a freshly measured one.
# Override either side: make bench-compare BENCH_OLD=a.json BENCH_NEW=b.json
BENCH_OLD ?= BENCH_sim.json
BENCH_NEW ?= bin/BENCH_new.json
bench-compare:
	@mkdir -p bin
	@if [ ! -f "$(BENCH_NEW)" ]; then $(GO) run ./cmd/schedbench -benchjson $(BENCH_NEW); fi
	$(GO) run ./cmd/benchdiff $(BENCH_OLD) $(BENCH_NEW)

# bench-replay gates the record/replay subsystem: the live-vs-replay
# equivalence suite must actually run and pass (the grep rejects a log
# where it was skipped or filtered away), a quick Fig. 8 grid must
# resolve at least half of its cells from the trace cache and print the
# same tables (every line but the # comments) as the grid run all live
# with -notrace, and two runs over one -tracecache directory must
# round-trip its recordings: the second run adopts the DGTS files the
# first wrote and records nothing. A full-scale cell over that directory
# must record nothing either: it keys its recording as the grid's
# Quicksort cells do, so a key that drifts between the two paths fails
# here.
bench-replay:
	@mkdir -p bin
	$(GO) test ./internal/exp/ -run TestLiveReplayEquivalence -count=1 -v > bin/replay_equiv.log 2>&1 || { cat bin/replay_equiv.log; exit 1; }
	grep -q -- "--- PASS: TestLiveReplayEquivalence" bin/replay_equiv.log
	$(GO) run ./cmd/schedbench -profile quick -experiment fig8 -mintracehit 50 > bin/fig8_traced.txt || { cat bin/fig8_traced.txt; exit 1; }
	$(GO) run ./cmd/schedbench -profile quick -experiment fig8 -notrace > bin/fig8_live.txt
	grep -v '^#' bin/fig8_traced.txt > bin/fig8_traced.tables
	grep -v '^#' bin/fig8_live.txt > bin/fig8_live.tables
	diff bin/fig8_traced.tables bin/fig8_live.tables
	@grep '^# trace cache:' bin/fig8_traced.txt; echo "bench-replay: traced fig8 tables equal the all-live run"
	rm -rf bin/tracecache
	$(GO) run ./cmd/schedbench -profile quick -experiment fig8 -tracecache bin/tracecache
	$(GO) run ./cmd/schedbench -profile quick -experiment fig8 -tracecache bin/tracecache -mintracehit 100
	$(GO) run ./cmd/schedbench -profile quick -experiment cell -kernel Quicksort -sched sb -tracecache bin/tracecache -mintracehit 100

# bench-module vets and tests the frozen benchmark (bench/, a nested
# module that the root's ./... patterns skip) against this tree's
# packages, its 50-digest smoke test included: an exported-API change in
# internal/exp or internal/dagtrace that breaks the benchmark fails here
# instead of only when the benchmark runs.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# cluster gates the multi-machine serving subsystem: the determinism
# suite (cluster-of-1 bit-identity, advance-order invariance, the pinned
# sweep golden) must pass under the race detector, then a quick-profile
# sweep runs end to end through the CLI.
cluster:
	$(GO) test -race -count=2 -run 'TestCluster|TestAffinityLocality|TestGoldenCluster' ./internal/cluster/ ./internal/exp/
	$(GO) run ./cmd/schedbench -profile quick -experiment cluster

# examples builds every program under examples/ and runs each one under a
# 300 s timeout: an example that no longer builds, exits non-zero or hangs
# fails the target. examples/pipeline is the one program that forks futures
# through the live engine. Each run's output lands in bin/example_<name>.log.
examples:
	@mkdir -p bin/examples
	$(GO) build -o bin/examples/ ./examples/...
	@for ex in bin/examples/*; do \
		n=`basename $$ex`; \
		timeout 300 $$ex > bin/example_$$n.log 2>&1 \
			|| { echo "examples: $$n failed"; cat bin/example_$$n.log; exit 1; }; \
		echo "examples: $$n ok"; \
	done

# fullscale-smoke proves shard-count invariance through the CLI exactly
# the way the CI job does: one ×4-scale grid cell streamed and sharded at
# -shards 1 and -shards 2 must print identical fingerprint= lines. It also
# bounds memory: each cell's runtime_sys (the Go runtime's memory
# high-water mark, on its memory: line) must stay at or below
# FULLSCALE_MAX_SYS_MB. The recording streams into its file, so a cell
# needs about 70 MB; a buffer the size of the 622 MB op stream anywhere on
# the record path puts it near 1.8 GB.
FULLSCALE_MAX_SYS_MB := 256
fullscale-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/schedbench -experiment cell -profile x4 -kernel RRM -sched sb -shards 1 > bin/cell_s1.log
	$(GO) run ./cmd/schedbench -experiment cell -profile x4 -kernel RRM -sched sb -shards 2 > bin/cell_s2.log
	@f1=`grep -o 'fingerprint=[0-9a-f]*' bin/cell_s1.log`; \
	f2=`grep -o 'fingerprint=[0-9a-f]*' bin/cell_s2.log`; \
	echo "shards=1: $$f1"; echo "shards=2: $$f2"; \
	test -n "$$f1" && test "$$f1" = "$$f2" \
		&& echo "fullscale-smoke: fingerprints identical across shard counts"
	@for log in bin/cell_s1.log bin/cell_s2.log; do \
		mb=`grep -o 'runtime_sys=[0-9.]*' $$log | cut -d= -f2`; \
		echo "$$log: runtime_sys=$${mb}MB"; \
		awk -v mb="$$mb" -v max=$(FULLSCALE_MAX_SYS_MB) 'BEGIN { exit !(mb != "" && mb + 0 <= max) }' \
			|| { echo "fullscale-smoke: $$log runtime_sys=$${mb}MB exceeds $(FULLSCALE_MAX_SYS_MB) MB"; exit 1; }; \
	done; echo "fullscale-smoke: both cells within $(FULLSCALE_MAX_SYS_MB) MB"

# fullgrid-smoke proves the record-once grid contract through the CLI the
# way the CI job does: a ×4-scale 2-scheduler × 2-bandwidth grid must
# perform exactly one recording (recordings=1 in the summary line), and
# its sb cell at full bandwidth must print the same fingerprint as the
# standalone cell experiment — shared recordings and grid concurrency
# never reach simulated results.
fullgrid-smoke:
	@mkdir -p bin
	$(GO) run ./cmd/schedbench -experiment fullgrid -profile x4 -kernels RRM -scheds sb,sbd -bands 4,1 -shards 2 -gridworkers 2 > bin/fullgrid.log
	$(GO) run ./cmd/schedbench -experiment cell -profile x4 -kernel RRM -sched sb -shards 2 > bin/cell_ref.log
	@grep -q 'recordings=1 ' bin/fullgrid.log \
		|| { echo "fullgrid-smoke: grid did not record exactly once"; grep 'fullgrid:' bin/fullgrid.log; exit 1; }
	@fg=`awk '/^fullscale cell RRM\/sb .* links=4$$/{want=1} want && /fingerprint=/{print; exit}' bin/fullgrid.log | grep -o 'fingerprint=[0-9a-f]*'`; \
	fc=`grep -o 'fingerprint=[0-9a-f]*' bin/cell_ref.log`; \
	echo "grid: $$fg"; echo "cell: $$fc"; \
	test -n "$$fg" && test "$$fg" = "$$fc" \
		&& echo "fullgrid-smoke: grid fingerprint matches the cell path"

# fullgrid-resume-smoke proves the supervisor's crash-safe resume
# contract through the CLI the way the CI job does: a journaled ×4 grid
# is SIGTERMed after its first cell completes and must exit with the
# resumable code (3); a -resume run must restore the journaled cells
# (resumed= in the supervisor line) and print fingerprint lines
# identical to an uninterrupted run over the same recordings.
RESUME_DIR := bin/resume_run
RESUME_FLAGS := -experiment fullgrid -profile x4 -kernels RRM -scheds sb,sbd -bands 4,1 -shards 2 -gridworkers 1
fullgrid-resume-smoke:
	@mkdir -p bin
	rm -rf $(RESUME_DIR) bin/interrupted.log bin/resume.log bin/clean.log
	$(GO) build -o bin/schedbench ./cmd/schedbench
	@./bin/schedbench $(RESUME_FLAGS) -v -rundir $(RESUME_DIR) > bin/interrupted.log 2>&1 & \
	pid=$$!; \
	for i in `seq 1 180`; do \
		grep -q '^# done' bin/interrupted.log && break; \
		kill -0 $$pid 2>/dev/null || break; \
		sleep 1; \
	done; \
	grep -q '^# done' bin/interrupted.log || { echo "fullgrid-resume-smoke: no cell completed before timeout"; cat bin/interrupted.log; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid; code=$$?; \
	test $$code -eq 3 || { echo "fullgrid-resume-smoke: interrupted run exited $$code, want 3"; cat bin/interrupted.log; exit 1; }; \
	echo "fullgrid-resume-smoke: interrupted run exited resumable (3)"
	@./bin/schedbench $(RESUME_FLAGS) -v -rundir $(RESUME_DIR) -resume > bin/resume.log 2>&1 \
		|| { echo "fullgrid-resume-smoke: resume failed"; cat bin/resume.log; exit 1; }
	@grep -q 'resumed=[1-9]' bin/resume.log \
		|| { echo "fullgrid-resume-smoke: resume restored no cells"; grep supervisor bin/resume.log; exit 1; }
	@./bin/schedbench $(RESUME_FLAGS) -tracecache $(RESUME_DIR)/traces > bin/clean.log 2>&1 \
		|| { echo "fullgrid-resume-smoke: clean run failed"; cat bin/clean.log; exit 1; }
	@grep -o 'fingerprint=[0-9a-f]*' bin/resume.log | sort > bin/resume_fp.txt; \
	grep -o 'fingerprint=[0-9a-f]*' bin/clean.log | sort > bin/clean_fp.txt; \
	test -s bin/resume_fp.txt \
		&& diff -u bin/resume_fp.txt bin/clean_fp.txt \
		&& echo "fullgrid-resume-smoke: resumed fingerprints identical to the uninterrupted run"

# fuzz smoke-runs the codec fuzz targets for a few seconds each (go test
# accepts exactly one -fuzz pattern per invocation, hence one run per
# target): the opcode varint codecs, the framed-trace stream decoder, the
# //schedlint: directive parser (malformed directives must parse into
# findings, never panic or silently grant exemptions), the cache model
# against its stamp-LRU reference on fuzzed access streams, and the
# RunScript replay loop against per-op Access on fuzzed op streams and
# chunk budgets, and the engine's worker heap against a sorted reference
# on fuzzed init/pop/push/pushPop sequences. Corpus additions land under
# <pkg>/testdata/fuzz/.
fuzz:
	$(GO) test ./internal/opcode/ -run '^$$' -fuzz '^FuzzUvarintRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/opcode/ -run '^$$' -fuzz '^FuzzUvarintDecode$$' -fuzztime 5s
	$(GO) test ./internal/opcode/ -run '^$$' -fuzz '^FuzzZigzagRoundTrip$$' -fuzztime 5s
	$(GO) test ./internal/dagtrace/ -run '^$$' -fuzz '^FuzzFramedDecode$$' -fuzztime 5s
	$(GO) test ./internal/runlog/ -run '^$$' -fuzz '^FuzzRunlogDecode$$' -fuzztime 5s
	$(GO) test ./internal/lint/analysis/ -run '^$$' -fuzz '^FuzzDirective$$' -fuzztime 5s
	$(GO) test ./internal/cachesim/ -run '^$$' -fuzz '^FuzzAccessMatchesReference$$' -fuzztime 5s
	$(GO) test ./internal/cachesim/ -run '^$$' -fuzz '^FuzzRunScriptMatchesAccess$$' -fuzztime 5s
	$(GO) test ./internal/sim/ -run '^$$' -fuzz '^FuzzWorkerHeap$$' -fuzztime 5s

# check is the full pre-push gate: everything CI enforces that can run
# offline (staticcheck and govulncheck need their pinned tools installed;
# see ci.yml).
check: build fmt-check race lint bench-module examples
