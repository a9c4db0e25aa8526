GO ?= go
# BENCH_TAG is the single source of the committed snapshot name that
# bench-json writes; bump it once per PR. The bench-diff and bench-best gates
# write the untracked BENCH_OUT instead, so running them never overwrites a
# committed snapshot.
BENCH_TAG ?= pr24
BENCH_OUT ?= bench-out.json
BENCHTIME ?= 0.5s
# bench-diff compares against the previous PR's committed snapshot.
BENCH_BASELINE ?= BENCH_pr8.json
# bench-best compares against the best snapshot ever committed, so a slow
# regression across several PRs can't hide behind per-PR drift budgets.
BENCH_BEST ?= BENCH_best.json
MAX_DRIFT ?= 0.10
MAX_ALLOC_GROWTH ?= 0

.PHONY: build test bench bench-json bench-diff bench-best vet xbarvet lint fuzz-smoke

build: vet
	$(GO) build ./...

vet:
	$(GO) vet ./...

# xbarvet runs the repo-invariant analyzers (cmd/xbarvet): hot-path
# allocation bans, journal lock/IO discipline, metrics naming, and
# durable-write error checking.
xbarvet:
	$(GO) run ./cmd/xbarvet ./...

lint: vet xbarvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# fuzz-smoke gives the parser and kernel fuzz targets a short budget; CI
# runs the same legs so every PR fuzzes the frame decoder, both match
# kernels and the defect sampler's draw-and-compare kernel.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseFrame -fuzztime=$(FUZZTIME) ./internal/journal
	$(GO) test -run='^$$' -fuzz=FuzzMatchRowAgainst -fuzztime=$(FUZZTIME) ./internal/bitmat
	$(GO) test -run='^$$' -fuzz=FuzzFirstSubset -fuzztime=$(FUZZTIME) ./internal/bitmat
	$(GO) test -run='^$$' -fuzz=FuzzBelow -fuzztime=$(FUZZTIME) ./internal/lfg

test:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=XXX ./...

# bench-json records the tier benchmark set as a machine-readable snapshot
# (ns/op, B/op, allocs/op per benchmark) for the committed perf trajectory.
bench-json:
	$(GO) run ./cmd/xbarbench -out BENCH_$(BENCH_TAG).json -benchtime $(BENCHTIME)

# bench-diff is the perf regression gate: bench the tier now and fail when
# the geomean ns/op drifts more than MAX_DRIFT past BENCH_BASELINE, or when
# any benchmark grows its allocs/op beyond MAX_ALLOC_GROWTH (default 0: the
# zero-alloc loop contracts are load-bearing). Timing is only meaningful when
# the baseline came from the same machine; the alloc gate holds anywhere.
bench-diff:
	$(GO) run ./cmd/xbarbench -out $(BENCH_OUT) -benchtime $(BENCHTIME) \
		-compare $(BENCH_BASELINE) -max-drift $(MAX_DRIFT) \
		-max-alloc-growth $(MAX_ALLOC_GROWTH)

# bench-best gates against the all-time best committed snapshot. When a PR
# beats it, re-copy: cp $(BENCH_OUT) $(BENCH_BEST).
bench-best:
	$(GO) run ./cmd/xbarbench -out $(BENCH_OUT) -benchtime $(BENCHTIME) \
		-compare $(BENCH_BEST) -max-drift $(MAX_DRIFT) \
		-max-alloc-growth $(MAX_ALLOC_GROWTH)
