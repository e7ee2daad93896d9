# Same entry points CI uses — run `make <target>` locally to reproduce a CI
# job exactly.

GO ?= go
# Benchmarks the CI smoke job tracks across commits (and the bench gate
# compares against BENCH_baseline.json), by layer of one labeling:
#   Ingest, TraceIndex, the fused pcap→Index decode (its allocs/op is the
#   EncodeIndex,        steady-state serving cost) of a full-payload capture
#   FlowTable           from elsewhere and of the same day in the header-only
#                       form the module writes and the store keeps, against
#                       ReadTrace+NewIndex, and the decoded day's
#                       Index.Digest (admission's dedup key); trace.NewIndex
#                       alone; the job's
#                       re-encode of an index to that payload-stripped pcap
#                       (one allocation, none per packet); and the flow table's
#                       own file, encoded (what the job adds beside the pcap)
#                       and decoded (what a flows query pays on a cache miss,
#                       where Ingest/stored is what it paid before)
#   DetectAll,          the detector layer as the pipeline runs it (four
#   Detectors,          prepares, twelve decisions; workers={1,4}) — DetectAll
#   HoughSparse,        also matches DetectAllSegment/seq={0,39}, the same layer
#   EigenSym            on the first and last sealed 15 s segment of a streamed
#                       600 s day (the last behind 585 s of empty bins, which
#                       only KL still allocates); each detector's whole Detect, its Prepare
#                       and its Decide halves (the Detectors pattern matches
#                       DetectorsPrepare/DetectorsDecide too); one Hough Detect
#                       per tuning; and PCA's eigensolver (Householder +
#                       implicit QL) alone on a 32×32 covariance (rows={15,60}:
#                       one segment, one batch day)
#   Extract,            the similarity estimator's stages — sorted-posting alarm
#   SimilarityGraph,    extraction into sorted id slices, the CSR inverted
#   Louvain, Union,     index and row fan-out of internal/simgraph, community
#   Estimate            mining, the merge of each community's member sets into
#                       sorted flow ids and packets (Extractor.Union) — and the
#                       whole of core.EstimateContext
#   RadixSort           internal/radix alone on index-shaped ids, under its
#                       small-slice threshold (n=64: slices.Sort does the work)
#                       and at the bench day's flow and packet counts (n=11k,
#                       n=50k) — the sort under the flow table's postings, the
#                       traffic unions and the rule miner's columns
#   MedianMAD           the robust reference PCA, KL and Gamma threshold each
#                       per-bin series against, by selection: a batch day's
#                       60-row PCA column, a late segment's 600-row column that
#                       is 97 % one value, a 15-minute trace's 900 bins
#   SCANN, Apriori,     the combine and label layers: SCANN's classification,
#   BuildReports        the rule miner labeling calls (apriori.MaximalRules)
#                       over 2 000 flow transactions and, as AprioriOneFlow,
#                       over the one-transaction community that dominates a
#                       streamed window, and the whole labeling tail of a day
#                       (mine, one matching pass, Table 1; workers={1,4}) —
#                       its allocs/op follows the communities and their
#                       rules, never packets or flows
#   PipelineDay,        a batch day end to end, the segmented streaming path
#   PipelineStream,     (per-segment seal + detect, sliding-window labeling;
#   WindowIndex,        its window=4,stride=1 row is stream_sliding's shape,
#   Segments            where each window carries three segments' alarm
#                       traffic), the index RunStream builds per stride from
#                       four sealed segments (bulk column appends + one Finish
#                       + the per-segment flow-id remaps), and stream ingest
#                       in ns/pkt: trace.Segments over a 64-slot channel from
#                       a feeder selecting on a cancellable ctx, beside the
#                       SegmentWriter alone
#   GenerateDay         the generator: one day in one sequential loop (days
#                       fan out only in eval.Runner.Days, each slot
#                       generating its own day) and its radix timestamp
#                       sort, as a 45 s day and, as GenerateDayStream, a
#                       600 s day of the stream_sliding corpus's shape
#                       (~0.27 M packets), where a sort worse than linear
#                       would show
# PipelineDay, PipelineStream, Extract and SimilarityGraph carry
# workers={1,4,N} sub-benches (DetectAll and BuildReports workers={1,4}), so
# each run records the parallel speedup ratios too; the rest are one row each
# (TraceIndex, WindowIndex, EigenSym, Louvain, Union and the two GenerateDay
# rows because the stages are sequential, DetectAllSegment/Estimate/SCANN/
# Apriori at workers=1; RadixSort is one row per length, MedianMAD one per
# series shape, Segments one per feed; PipelineStream adds its sequential
# window=4,stride=1 row).
BENCH_PATTERN ?= PipelineDay|PipelineStream|Segments|DetectAll|Detectors|Louvain|SimilarityGraph|GenerateDay|TraceIndex|Extract|Ingest|HoughSparse|Estimate|SCANN|Apriori|EigenSym|WindowIndex|EncodeIndex|BuildReports|Union|RadixSort|MedianMAD|FlowTable
# Total-coverage floor for `make cover`, in percent. Set from the measured
# coverage at the last raise (85.1% when the golden-fixture and fuzz tests
# landed), rounded down; raise it as coverage grows, never lower it to make
# a PR pass.
COVER_FLOOR ?= 85.0
# ns/op regression tolerance for `make bench-gate`, as a fraction.
BENCH_THRESHOLD ?= 0.25
# allocs/op regression tolerance for `make bench-gate`. Deliberately much
# looser than the ns/op bar: the gate is for order-of-magnitude leaks (a
# dropped pool, a per-packet allocation), and pooled benches have
# single-digit baselines where a couple of allocations of jitter already
# doubles the ratio.
BENCH_ALLOC_THRESHOLD ?= 2.0
# Per-target budget for the `make fuzz` smoke.
FUZZTIME ?= 10s
# Iterations for `make bench`. The smoke/artifact run keeps the 1x default;
# the CI gate job overrides with BENCHTIME=5x so a single scheduler hiccup
# can't push a benchmark past the threshold.
BENCHTIME ?= 1x

.PHONY: all build test test-386 test-softfloat race bench bench-gate bench-baseline cover fmt vet fuzz lint fma-check serve-smoke check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite on a second architecture: 386, where int is 32 bits wide,
# so a length or count that only fits a 64-bit int (a pcap origlen of 2³¹,
# a word past 2³¹ read as int) fails here instead of going unseen on amd64.
# Cross-compiled test binaries run natively on an amd64 host.
test-386:
	GOARCH=386 $(GO) test ./...

# The golden-pinned packages on 386 with software floating point
# (GO386=softfloat): every float operation runs as Go code instead of on the
# FPU, so these goldens — the pipeline's labels and ADMD scores, the
# generator's digests, the experiments' stdout, the eigensolver and the
# detectors' references — are executed under a second float implementation.
test-softfloat:
	GOARCH=386 GO386=softfloat $(GO) test . ./internal/mawigen ./cmd/experiments ./internal/linalg ./internal/detectors/...

# The race job covers the whole module: the root package (pipeline +
# benches compile in, including the RunStream engine and its
# TestStreamMatchesBatch / TestStreamDeterminismMatrix / cancellation
# tests, and TestSealedIndexesSurvivePoolChurn's arena-pool churn), every
# internal package where the concurrency lives — trace (the pooled index
# arenas), eval (Runner.Days' day-level fan-out, the one place the
# evaluation generates and labels days; one day is one sequential loop),
# parallel (the pool itself), detectors (the
# prepare-then-decide fan-out of DetectAllContext, and detectors/suite's
# TestDecideConcurrent: one Prepared
# decided from eight goroutines), simgraph (the similarity graph's row fan-out),
# serve (the daemon's engine admission/drain paths, lock-free histograms
# and graceful-shutdown tests) — plus the cmd binaries' black-box tests
# (mawilabd's serve smoke spawns the real daemon) and examples. ./... so
# a new package can never silently miss race coverage.
race:
	$(GO) test -race ./...

# Benchmark smoke run: one iteration of the tracked benches, converted to
# BENCH_ci.json for the artifact trail. No pipe: a benchmark failure must
# fail the recipe, and `go test | tee` would report tee's exit status.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime=$(BENCHTIME) . > bench.txt
	@cat bench.txt
	$(GO) run ./cmd/benchjson < bench.txt > BENCH_ci.json
	@echo "wrote BENCH_ci.json"

# Benchmark-regression gate: compare the committed baseline against a fresh
# BENCH_ci.json (run `make bench` first, as the CI job does) and fail when a
# tracked benchmark's ns/op regresses past BENCH_THRESHOLD or its allocs/op
# past BENCH_ALLOC_THRESHOLD. Intentional trade-offs skip the gate with a
# "[bench-skip]" commit-message tag in CI.
bench-gate:
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_ci.json \
		-threshold $(BENCH_THRESHOLD) -alloc-threshold $(BENCH_ALLOC_THRESHOLD)

# Refresh the committed baseline from a fresh multi-iteration run (more
# stable than the 1x smoke numbers). Do this in its own commit, with the
# hardware noted in the commit message, whenever benches are added or a
# deliberate perf trade-off lands.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime=5x . > bench_baseline.txt
	@cat bench_baseline.txt
	$(GO) run ./cmd/benchjson < bench_baseline.txt > BENCH_baseline.json
	@rm bench_baseline.txt
	@echo "wrote BENCH_baseline.json"

# Coverage gate: total statement coverage must stay at or above COVER_FLOOR.
# cover.out is uploaded as a CI artifact for inspection.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v total=$$total -v floor=$(COVER_FLOOR) 'BEGIN { \
		if (total + 0 < floor + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", total, floor; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", total, floor }'

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific static analysis (the determinism contract): first the
# suite's own tests — every analyzer must still fire on its seeded
# testdata violations and the suppression grammar must still reject
# reasonless allows — then the mawilint binary over the whole module,
# which fails on any finding or unexplained suppression. See README
# "Static analysis & determinism contract".
lint:
	$(GO) test -count=1 ./internal/analysis/... ./cmd/mawilint
	$(GO) run ./cmd/mawilint ./...

# Fused multiply-add gate, the determinism contract across GOARCH: gc may
# fuse x*y + z into one FMA instruction on these architectures, rounding once
# where amd64 rounds twice, so a label could move with the machine. An
# explicit float64(x*y) conversion forbids the fusion. For each architecture
# the recipe cross-compiles every package inside the determinism boundary
# with -gcflags=-S (no toolchain beyond go) and fails on a fused mnemonic
# (FMADD/FMSUB/FNMADD/FNMSUB and their D/S forms). The tooling and serving
# layers — cmd, examples, internal/analysis, internal/serve, internal/eval —
# are outside the boundary. FMA_OPEN names the packages whose sites are still
# open: linalg's eigensolver rotations and mawigen's event and gap arithmetic
# (ROADMAP, the fused multiply-add item).
FMA_ARCHES ?= arm64 ppc64le s390x riscv64
FMA_OPEN ?= mawilab/internal/linalg mawilab/internal/mawigen

fma-check:
	@pkgs=$$($(GO) list ./... | grep -v -e '^mawilab/cmd/' -e '^mawilab/examples/' \
		-e '^mawilab/internal/analysis' -e '^mawilab/internal/serve$$' -e '^mawilab/internal/eval$$' \
		$(foreach p,$(FMA_OPEN),-e '^$(p)$$')) || exit 1; \
	fail=0; \
	for arch in $(FMA_ARCHES); do \
		out=$$(GOARCH=$$arch $(GO) build -gcflags=-S $$pkgs 2>&1) || { echo "$$out"; exit 1; }; \
		fused=$$(echo "$$out" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]'); \
		if [ -n "$$fused" ]; then echo "fma-check: fused multiply-add on $$arch:"; echo "$$fused"; fail=1; \
		else echo "fma-check: $$arch: no fused op in $$(echo $$pkgs | wc -w) packages"; fi; \
	done; \
	exit $$fail

# Short fuzzing smoke: every Fuzz target of the module, found per package
# with `go test -list`, runs its committed seed corpus plus FUZZTIME of fresh
# exploration (go test takes one -fuzz pattern per run, so each target gets
# its own). What a target checks is stated on it. A crash writes its
# reproducer into the package's testdata/fuzz corpus — commit it with the
# fix.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	echo "$$list" | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok / { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' | \
	while read pkg target; do \
		echo "fuzz $$pkg $$target"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# Black-box daemon smoke: build the real mawilabd binary, boot it on a
# random port, upload the golden fixture day over HTTP, assert the served
# CSV sha256 matches testdata/pipeline_golden.json, that the stored
# trace.pcap is the header-only upload byte for byte and flows.bin is 13
# bytes a flow,
# scrape /metrics, and SIGTERM it
# expecting a graceful drain and exit 0. The in-process HTTP
# tests live in ./internal/serve; this exercises the shipped binary.
serve-smoke:
	$(GO) test ./cmd/mawilabd -run '^TestServeSmoke$$' -v -count=1

check: build vet fmt lint fma-check test test-386 test-softfloat fuzz serve-smoke
