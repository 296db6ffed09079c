# Developer entry points. CI runs the same targets (see
# .github/workflows/ci.yml), so a green `make check bench-gate` locally
# means a green PR.

GOFLAGS ?= -trimpath
export GOFLAGS

.PHONY: build test race vet fmt docs check bench-gate bench-baseline bench-pr-snapshot fuzz-smoke cover

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

docs:
	sh scripts/checkdocs.sh

check: fmt vet docs build test

# Run the bench smoke set (-count=5 medians) and fail on >25% regression
# against the committed BENCH_BASELINE.json; writes BENCH_CURRENT.json
# for inspection/artifact upload.
bench-gate:
	sh scripts/benchgate.sh gate

# Refresh the committed baseline after an intentional perf change —
# commit the resulting BENCH_BASELINE.json with the change that moved it.
bench-baseline:
	sh scripts/benchgate.sh baseline

# Freeze this PR's numbers into a trajectory snapshot, e.g.
# `make bench-pr-snapshot SNAPSHOT=BENCH_PR5.json`.
SNAPSHOT ?= BENCH_PR4.json
bench-pr-snapshot:
	sh scripts/benchgate.sh snapshot $(SNAPSHOT)

# 30-second fuzz runs of the untrusted-input surfaces (both lexers, with
# their windowed lex), the distance kernel and the canonical signature
# encoding; crashes fail, time-box does not (the CI fuzz smoke).
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run=NONE -fuzz='^FuzzWorkerPartition$$' -fuzztime=$(FUZZTIME) ./internal/shardcoord/
	go test -run=NONE -fuzz='^FuzzWorkerEdgesV3$$' -fuzztime=$(FUZZTIME) ./internal/shardcoord/
	go test -run=NONE -fuzz='^FuzzLoadSegment$$' -fuzztime=$(FUZZTIME) ./internal/contentcache/
	go test -run=NONE -fuzz='^FuzzSignaturesPost$$' -fuzztime=$(FUZZTIME) ./sigdb/
	go test -run=NONE -fuzz='^FuzzDeltaSignatures$$' -fuzztime=$(FUZZTIME) ./sigdb/
	go test -run=NONE -fuzz='^FuzzAttestation$$' -fuzztime=$(FUZZTIME) ./sigdb/
	go test -run=NONE -fuzz='^FuzzKnownDir$$' -fuzztime=$(FUZZTIME) ./cmd/sigserve/
	go test -run=NONE -fuzz='^FuzzSampleDir$$' -fuzztime=$(FUZZTIME) ./cmd/sigserve/
	go test -run=NONE -fuzz='^FuzzJSTokenize$$' -fuzztime=$(FUZZTIME) ./internal/jstoken/
	go test -run=NONE -fuzz='^FuzzWebkitTokenize$$' -fuzztime=$(FUZZTIME) ./internal/webkittoken/
	go test -run=NONE -fuzz='^FuzzDistanceWithin$$' -fuzztime=$(FUZZTIME) ./internal/textdist/
	go test -run=NONE -fuzz='^FuzzSignatureJSON$$' -fuzztime=$(FUZZTIME) ./internal/siggen/

# Coverage with a ratcheting floor (scripts/covergate.sh); writes
# coverage.out for `go tool cover -html`.
cover:
	sh scripts/covergate.sh
