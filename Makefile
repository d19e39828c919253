# Development targets for the SHRIMP message-passing simulation.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt lint fuzz golden golden-check gated-coverage gated-coverage-check svm app meshscale bench check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet also vets the benchmark module under perfbench/, which builds against
# this tree through a replace directive: the root ./... skips it, so an API
# change could otherwise break the benchmark unnoticed.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# fmt fails if any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs shrimplint, the project's determinism-and-discipline checker
# (see DESIGN.md "Determinism contract"). Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/shrimplint ./...

# fuzz gives the XDR round-trip, raw-decode, trace, mesh packet-codec,
# event-queue differential, SRPC IDL parser, SunRPC header decode, NX
# packet-buffer descriptor decode, and KV batch and replication image
# decode targets a brief shake; the corpus
# accumulates in the Go build cache. This is the one list of fuzz targets;
# CI runs it.
fuzz:
	$(GO) test -run NONE -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/xdr
	$(GO) test -run NONE -fuzz FuzzDecodeRaw -fuzztime $(FUZZTIME) ./internal/xdr
	$(GO) test -run NONE -fuzz FuzzChromeTrace -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run NONE -fuzz FuzzPacketCodec -fuzztime $(FUZZTIME) ./internal/mesh
	$(GO) test -run NONE -fuzz FuzzEventQueue -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run NONE -fuzz FuzzParseIDL -fuzztime $(FUZZTIME) ./internal/srpc
	$(GO) test -run NONE -fuzz FuzzDecodeHeaders -fuzztime $(FUZZTIME) ./internal/sunrpc
	$(GO) test -run NONE -fuzz FuzzDecodeHdr -fuzztime $(FUZZTIME) ./internal/nx
	$(GO) test -run NONE -fuzz FuzzDecodeBatch -fuzztime $(FUZZTIME) ./internal/app
	$(GO) test -run NONE -fuzz FuzzDecodeRepl -fuzztime $(FUZZTIME) ./internal/app

# TestGolden (cmd/shrimpbench/golden_test.go) is the one check on the
# committed results: one row per file under results/ (the determinism
# manifest, the figure CSVs, every shrimpbench mode's stdout, three -stats
# summaries and the examples' stdout), each run and compared byte for byte.
# `go test ./...` runs the tier-1 rows; -ci adds -fig app, -fig meshscale
# and the examples. golden-check runs every row.
GOLDEN = -run TestGolden ./cmd/shrimpbench -ci

golden-check:
	$(GO) test -count=1 $(GOLDEN)

# golden rewrites every file under results/ from the current code: each
# row's file, then results/gated_coverage.txt. A change that moves an
# output regenerates them and explains every moved line.
golden:
	$(MAKE) gated-coverage GOLDEN='$(GOLDEN) -update'

# gated-coverage runs every row in one coverage binary and writes
# results/gated_coverage.txt: per package under internal/, the statements
# the rows execute. Columns: package, statements covered, statements,
# percent. gated-coverage-check reruns it into a scratch file, so a
# mismatch in any row fails it, and fails when any package's share falls
# below its committed line; a change that deletes gated code regenerates
# the file with make golden.
GATED_OUT ?= results/gated_coverage.txt

gated-coverage:
	$(GO) test -count=1 -coverpkg=./internal/... -coverprofile=/tmp/shrimp-gated.cov $(GOLDEN)
	@{ echo "# package covered statements percent (make golden)"; \
	awk '$$1 != "mode:" { pkg = $$1; sub(/\/[^\/]*:.*$$/, "", pkg); \
		tot[pkg] += $$2; if ($$3 > 0) cov[pkg] += $$2 } \
	END { for (k in tot) printf "%s %d %d %.1f\n", k, cov[k], tot[k], 100 * cov[k] / tot[k] }' \
		/tmp/shrimp-gated.cov | sort; } > $(GATED_OUT)

gated-coverage-check:
	$(MAKE) gated-coverage GATED_OUT=/tmp/shrimp-gated-coverage.txt
	@awk 'FNR == NR { if ($$1 !~ /^#/) { c[$$1] = $$2; t[$$1] = $$3 } next } \
	$$1 in c && $$2 * t[$$1] < c[$$1] * $$3 { bad = 1; \
		printf "%s: gated coverage %d/%d statements, below the committed %d/%d\n", $$1, $$2, $$3, c[$$1], t[$$1] } \
	END { if (bad) exit 1; print "gated coverage: no package below results/gated_coverage.txt" }' \
		results/gated_coverage.txt /tmp/shrimp-gated-coverage.txt

# svm runs the shared-virtual-memory package tests and the SVM-vs-NX
# Jacobi comparison (the EXPERIMENTS.md table).
svm:
	$(GO) test ./internal/svm ./internal/bench -run 'TestSVM|TestJacobi|Test.*Region|TestFetch|TestLock|TestNotices|TestManager|TestDeterminism|TestSurvives|TestEightNodes'
	$(GO) run ./cmd/shrimpbench -fig svm

# app runs the serving-subsystem tests (sharded KV + load generator) and
# the acceptance scenario: the offered-load ramp plus the million-session
# 8-node run with a mid-load primary crash, twice under the replay digest.
app:
	$(GO) test ./internal/app/...
	$(GO) run ./cmd/shrimpbench -fig app

# meshscale runs the big-mesh scaling study: 64, 256, and 1024 nodes on
# k-ary n-cube geometries (square 2-D meshes, a 3-D cube at 1024), with
# in-network combining off and on. Every cell runs twice and must replay
# byte-identically; at 256+ nodes combining must beat the software
# collectives. Exits nonzero otherwise. This is the EXPERIMENTS.md source.
meshscale:
	$(GO) run ./cmd/shrimpbench -fig meshscale

# bench runs every Go microbenchmark with allocation stats: the event-core
# hot paths (churn, timer arm/cancel, proc ping-pong), the memory bulk
# moves, the kernel's translation and user copies, the packet datapath
# (NIC -> mesh -> NIC), NX round trips, the SRPC null call, a KV batch of
# 16 gets, and the end-to-end figure/chaos drivers.
bench:
	$(GO) test -run NONE -bench . -benchmem ./internal/sim ./internal/mem ./internal/kernel ./internal/nic ./internal/mesh ./internal/nx ./internal/srpc ./internal/app ./internal/bench .

# check runs every gate CI runs: gofmt, build, vet, lint, race-enabled
# tests (the tier-1 golden rows among them), and every golden row with the
# gated-coverage floor. CI also gives the fuzz targets a brief shake (make
# fuzz) and runs the microbenchmarks; neither is part of check.
check: fmt build vet lint race gated-coverage-check

clean:
	$(GO) clean ./...
