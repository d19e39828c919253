# Development targets for the SHRIMP message-passing simulation.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt lint fuzz manifest gated-coverage gated-coverage-check examples trace-smoke svm app partition chaos meshscale meshscale-check meshscale-smoke app-check bench check clean

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

# manifest rewrites results/manifest.txt, the determinism manifest: one line
# per cell (the chaos matrix plus every scenario-table row under the empty
# plan) with its replay digest, event and switch counts, and output hash. TestDeterminismManifest (part of `go test ./...`)
# checks the code against it. A change that moves a cell regenerates it and
# explains every moved field.
manifest:
	$(GO) test -count=1 ./internal/bench -run TestDeterminismManifest -update

# gated-coverage writes results/gated_coverage.txt: per package under
# internal/, the statements the gated outputs execute (the determinism
# manifest, the committed figure CSVs and shrimpbench's committed stdout),
# each block counted once across the two test binaries. Columns: package,
# statements covered, statements, percent. gated-coverage-check reruns it
# into a scratch file and fails when any package's share falls below its
# committed line; a change that deletes gated code regenerates the file.
GATED_TESTS = TestDeterminismManifest|TestCommittedFigureCSVs|TestCommittedOutput
GATED_OUT ?= results/gated_coverage.txt

gated-coverage:
	$(GO) test -count=1 -coverpkg=./internal/... -coverprofile=/tmp/shrimp-gated.cov -run '$(GATED_TESTS)' ./internal/bench ./cmd/shrimpbench
	@{ echo "# package covered statements percent (make gated-coverage)"; \
	awk '$$1 != "mode:" { pkg = $$1; sub(/\/[^\/]*:.*$$/, "", pkg); \
		if (!($$1 in seen)) { seen[$$1] = 1; tot[pkg] += $$2 } \
		if ($$3 > 0 && !($$1 in hit)) { hit[$$1] = 1; cov[pkg] += $$2 } } \
	END { for (k in tot) printf "%s %d %d %.1f\n", k, cov[k], tot[k], 100 * cov[k] / tot[k] }' \
		/tmp/shrimp-gated.cov | sort; } > $(GATED_OUT)

gated-coverage-check:
	$(MAKE) gated-coverage GATED_OUT=/tmp/shrimp-gated-coverage.txt
	@awk 'FNR == NR { if ($$1 !~ /^#/) { c[$$1] = $$2; t[$$1] = $$3 } next } \
	$$1 in c && $$2 * t[$$1] < c[$$1] * $$3 { bad = 1; \
		printf "%s: gated coverage %d/%d statements, below the committed %d/%d\n", $$1, $$2, $$3, c[$$1], t[$$1] } \
	END { if (bad) exit 1; print "gated coverage: no package below results/gated_coverage.txt" }' \
		results/gated_coverage.txt /tmp/shrimp-gated-coverage.txt

# examples runs every program under examples/ and fails on the first
# nonzero exit. filexfer, kvstore and srpc-clock open connections through
# the socket, SunRPC and SRPC connect APIs, which no other program runs.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# trace-smoke exercises the observability layer end to end: run the same
# traced scenario twice and require byte-identical Chrome trace files —
# traces are part of the determinism contract.
trace-smoke:
	$(GO) run ./cmd/shrimpbench -fig fig3 -trace /tmp/shrimp-trace-a.json
	$(GO) run ./cmd/shrimpbench -fig fig3 -trace /tmp/shrimp-trace-b.json
	cmp /tmp/shrimp-trace-a.json /tmp/shrimp-trace-b.json
	@echo "trace-smoke: traces byte-identical"

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

# app-check runs the serving acceptance scenario and compares its stdout
# byte for byte with the committed results/app_output.txt (about 10 s on a
# 2-CPU host). It is the one gate on the serving run's far timers and
# cancels. CI's chaos job runs it; it is not part of check. A change that
# moves the run on purpose regenerates the file with
# `go run ./cmd/shrimpbench -fig app > results/app_output.txt`.
app-check:
	$(GO) run ./cmd/shrimpbench -fig app | cmp results/app_output.txt -
	@echo "app-check: stdout byte-identical to results/app_output.txt"

# partition runs the link-partition cells standalone: minority group,
# isolated primary, asymmetric cut, flapping link — each severed and
# healed mid-load, with epoch-fence counters, quorum-veto counts, and
# acked-write durability re-verified, twice under the replay digest.
partition:
	$(GO) run ./cmd/shrimpbench -fig partition

# meshscale runs the big-mesh scaling study: 64, 256, and 1024 nodes on
# k-ary n-cube geometries (square 2-D meshes, a 3-D cube at 1024), with
# in-network combining off and on. Every cell runs twice and must replay
# byte-identically; at 256+ nodes combining must beat the software
# collectives. Exits nonzero otherwise. This is the EXPERIMENTS.md source.
meshscale:
	$(GO) run ./cmd/shrimpbench -fig meshscale

# meshscale-check runs the same study and compares its stdout byte for byte
# with the committed results/meshscale_output.txt (about 20 s on a 2-CPU
# host). CI's chaos job runs it; it is not part of check. A change that
# moves a cell on purpose regenerates the file with
# `go run ./cmd/shrimpbench -fig meshscale > results/meshscale_output.txt`.
meshscale-check:
	$(GO) run ./cmd/shrimpbench -fig meshscale | cmp results/meshscale_output.txt -
	@echo "meshscale-check: stdout byte-identical to results/meshscale_output.txt"

# meshscale-smoke is the fast digest-stability gate over tiny geometries
# (2x2 and 2x2x2, both combining modes); it rides in every `make check`.
meshscale-smoke:
	$(GO) run ./cmd/shrimpbench -fig meshsmoke

# chaos runs the fault-injection soak: every scenario-table row under the
# standard fault plans (lossy links with retransmission, NIC freeze
# storms, a mid-transfer node crash, link partitions against the serving
# stack), checking termination, acknowledged-data integrity, and
# replay-stable digests, plus the degraded-mode Fig 5 table. Exits
# nonzero if any cell fails.
chaos:
	$(GO) run ./cmd/shrimpbench -fig faults

# bench runs every Go microbenchmark with allocation stats: the event-core
# hot paths (churn, timer arm/cancel, proc ping-pong), the memory bulk
# moves, the kernel's translation and user copies, the packet datapath
# (NIC -> mesh -> NIC), NX round trips, the SRPC null call, a KV batch of
# 16 gets, and the end-to-end figure/chaos drivers.
bench:
	$(GO) test -run NONE -bench . -benchmem ./internal/sim ./internal/mem ./internal/kernel ./internal/nic ./internal/mesh ./internal/nx ./internal/srpc ./internal/app ./internal/bench .

# check runs every gate CI runs: gofmt, build, vet, lint, race-enabled
# tests, the gated-coverage floor, the example programs, trace
# determinism, mesh-scaling digest stability, the chaos soak, and the
# partition cells. CI also gives the fuzz targets a brief shake (make fuzz),
# runs the microbenchmarks and compares the full mesh-scaling study with
# its committed output (make meshscale-check), and the serving run with
# its own (make app-check); none of these is part of check.
check: fmt build vet lint race gated-coverage-check examples trace-smoke meshscale-smoke chaos partition

clean:
	$(GO) clean ./...
