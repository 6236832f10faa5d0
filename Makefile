# Local dev and CI run the same commands: .github/workflows/ci.yml invokes
# the same go invocations these targets wrap.

GO ?= go

.PHONY: all build test race assert bench bench-test repro-gate fmt fmt-check vet ci serve serve-smoke load-smoke cluster-smoke chaos-smoke trace-smoke fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-sensitive packages: the sharded monitor's fan-out, the conceptual
# partitioning it traverses, the engine it drives in parallel, the shared
# grid (whose epoch-guard assertions, including their negative-control
# tests, only compile under race/cpmassert builds), the notify
# pub/sub layer (incl. the root package's subscriber stress test), the
# network serving layer (wire codec, TCP server, reconnecting client),
# the cluster coordinator's fan-out/re-sync machinery, the chaos
# fault-injection layer (whose cluster suite hammers all of the above)
# and the tracing runtime (pooled spans finished from fan-out
# goroutines, the ring buffer scraped mid-flight).
race:
	$(GO) test -race . ./internal/shard/... ./internal/conc/... ./internal/core/... ./internal/grid/... ./internal/notify/... ./internal/wire/... ./internal/server/... ./client/... ./internal/metrics/... ./internal/load/... ./internal/cluster/... ./internal/chaos/... ./internal/tracing/...

# The assertion build without the race detector: the grid's epoch guards,
# its index guard (every ApplyWatched and Rebuild checks the cell lists
# against the id-indexed store, whichever maintenance mode ran), the
# influence index's occupancy guard (every add and remove checks the
# cell's bit against its list, since a drifted bit would silently drop
# updates from the filtered write log) and the engine's freed-slot guard
# (RemoveQuery panics if an influence or touched list still names the slot
# it parks), with their negative-control tests, over the packages that can
# trip them — SEA-CNN in internal/baseline keeps its answer regions in an
# influence index too, and every public Monitor (the root package, its
# fuzz seeds included) runs over a shared grid. Seconds, not the race
# job's minutes, and allocation-count tests still run.
assert:
	$(GO) test -tags cpmassert . ./internal/baseline/... ./internal/core/... ./internal/grid/... ./internal/shard/...

# Host a self-driving CPM monitor on :7845; watch it with
#   go run ./cmd/cpmsim -connect 127.0.0.1:7845 -follow
serve:
	$(GO) run ./cmd/cpmserver -drive -addr :7845

# Loopback server round trip: a cpmserver hosting an empty monitor, a
# cpmsim -connect feeding and streaming it over TCP. CI runs this in the
# test job; it exercises the full binary path the tests mock with
# in-process listeners.
serve-smoke:
	@set -e; \
	$(GO) build -o /tmp/cpm-smoke-server ./cmd/cpmserver; \
	$(GO) build -o /tmp/cpm-smoke-sim ./cmd/cpmsim; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	/tmp/cpm-smoke-server -addr 127.0.0.1:17845 & srv=$$!; \
	sleep 1; \
	/tmp/cpm-smoke-sim -connect 127.0.0.1:17845 -n 2000 -queries 20 -ts 5 -watch 1; \
	kill $$srv; wait $$srv 2>/dev/null || true; \
	/tmp/cpm-smoke-server -addr 127.0.0.1:17846 & srv=$$!; \
	sleep 1; \
	/tmp/cpm-smoke-sim -connect 127.0.0.1:17846 -n 2000 -queries 20 -ts 3 -follow -watch 1; \
	kill $$srv; wait $$srv 2>/dev/null || true; \
	echo "serve-smoke: ok"

# Open-loop load smoke on loopback: a cpmserver with the metrics endpoint
# on, a short Poisson burst from cpmload (which prints per-op p50/p99/p999),
# and a curl of /metrics.
load-smoke:
	@set -e; \
	$(GO) build -o /tmp/cpm-load-server ./cmd/cpmserver; \
	$(GO) build -o /tmp/cpm-load-driver ./cmd/cpmload; \
	trap 'kill $$srv 2>/dev/null || true' EXIT; \
	/tmp/cpm-load-server -addr 127.0.0.1:17847 -metrics 127.0.0.1:19100 & srv=$$!; \
	sleep 1; \
	/tmp/cpm-load-driver -addr 127.0.0.1:17847 -conns 2 -rate 300 -duration 3s -n 500 -queries 20 -v; \
	if command -v curl >/dev/null; then \
		curl -sf 127.0.0.1:19100/metrics | head -5; \
	fi; \
	kill $$srv; wait $$srv 2>/dev/null || true; \
	echo "load-smoke: ok"

# Cluster round trip on loopback: two stock cpmserver workers, a cpmcoord
# sharding across them, then a cpmload burst and a cpmsim -connect -follow
# session against the coordinator — the full distributed binary path. The
# coordinator is restarted between the two phases (a fresh coordinator
# resets its workers at startup), which also smoke-tests coordinator
# restartability. CI runs this in the test job next to serve-smoke /
# load-smoke.
cluster-smoke:
	@set -e; \
	$(GO) build -o /tmp/cpm-cluster-server ./cmd/cpmserver; \
	$(GO) build -o /tmp/cpm-cluster-coord ./cmd/cpmcoord; \
	$(GO) build -o /tmp/cpm-cluster-load ./cmd/cpmload; \
	$(GO) build -o /tmp/cpm-cluster-sim ./cmd/cpmsim; \
	trap 'kill $$w1 $$w2 $$co 2>/dev/null || true' EXIT; \
	/tmp/cpm-cluster-server -addr 127.0.0.1:17848 & w1=$$!; \
	/tmp/cpm-cluster-server -addr 127.0.0.1:17849 & w2=$$!; \
	sleep 1; \
	/tmp/cpm-cluster-coord -addr 127.0.0.1:17850 -metrics 127.0.0.1:19101 \
		-workers 127.0.0.1:17848,127.0.0.1:17849 & co=$$!; \
	sleep 1; \
	/tmp/cpm-cluster-load -addr 127.0.0.1:17850 -conns 2 -rate 200 -duration 3s -n 500 -queries 20 -v; \
	kill $$co; wait $$co 2>/dev/null || true; \
	/tmp/cpm-cluster-coord -addr 127.0.0.1:17850 -metrics 127.0.0.1:19101 \
		-workers 127.0.0.1:17848,127.0.0.1:17849 & co=$$!; \
	sleep 1; \
	/tmp/cpm-cluster-sim -connect 127.0.0.1:17850 -n 1000 -queries 10 -ts 3 -follow -watch 1; \
	if command -v curl >/dev/null; then \
		curl -sf 127.0.0.1:19101/metrics | grep -E '^cpm_coord_(workers|workers_synced) ' ; \
	fi; \
	kill $$co $$w1 $$w2; wait $$co $$w1 $$w2 2>/dev/null || true; \
	echo "cluster-smoke: ok"

# Full-binary failure drill: a cpmcoord whose link to one worker runs
# through a cpmchaos proxy replaying a seeded fault schedule (latency,
# then a reset storm) while cpmload drives traffic. The schedule ends
# about four seconds before the load does, so the drill closes with
# traffic on a healed link; the target then fails unless the metrics page
# shows every worker synced — a worker the drill desynced must have
# rejoined. A second cpmload cannot drive that tail instead: it would
# bootstrap and register the same standing queries again. The strong
# never-silently-wrong assertions live in the in-process chaos suite
# (internal/cluster/chaos_test.go), which this target runs first.
chaos-smoke:
	@set -e; \
	$(GO) test -count=1 -run 'TestChaos' ./internal/cluster/; \
	$(GO) build -o /tmp/cpm-chaos-server ./cmd/cpmserver; \
	$(GO) build -o /tmp/cpm-chaos-proxy ./cmd/cpmchaos; \
	$(GO) build -o /tmp/cpm-chaos-coord ./cmd/cpmcoord; \
	$(GO) build -o /tmp/cpm-chaos-load ./cmd/cpmload; \
	trap 'kill $$w1 $$w2 $$px $$co 2>/dev/null || true' EXIT; \
	/tmp/cpm-chaos-server -addr 127.0.0.1:17851 & w1=$$!; \
	/tmp/cpm-chaos-server -addr 127.0.0.1:17852 & w2=$$!; \
	sleep 1; \
	/tmp/cpm-chaos-proxy -addr 127.0.0.1:17853 -target 127.0.0.1:17851 -seed 42 \
		-schedule '1s+2s:latency=30ms~20ms, 4s+1s:reset=0.3' & px=$$!; \
	sleep 1; \
	/tmp/cpm-chaos-coord -addr 127.0.0.1:17854 -metrics 127.0.0.1:19102 -op-timeout 1s \
		-workers 127.0.0.1:17853,127.0.0.1:17852 & co=$$!; \
	sleep 1; \
	/tmp/cpm-chaos-load -addr 127.0.0.1:17854 -conns 2 -rate 150 -duration 7s -n 500 -queries 20 -v; \
	if command -v curl >/dev/null; then \
		m=$$(curl -sf 127.0.0.1:19102/metrics); \
		echo "$$m" | grep -E '^cpm_coord_(workers|workers_synced|worker_desyncs_total|op_retries_total|resyncs_total) '; \
		n=$$(echo "$$m" | awk '$$1 == "cpm_coord_workers" {print $$2}'); \
		s=$$(echo "$$m" | awk '$$1 == "cpm_coord_workers_synced" {print $$2}'); \
		[ -n "$$n" ] && [ "$$s" = "$$n" ] || { echo "chaos-smoke: $$s of $$n workers synced after the drill" >&2; exit 1; }; \
	fi; \
	kill $$co $$px $$w1 $$w2; wait $$co $$px $$w1 $$w2 2>/dev/null || true; \
	echo "chaos-smoke: ok"

# Tracing smoke on the full distributed binary path: a coordinator over
# two workers with head sampling at 1, a traced cpmload burst, then a
# curl of /debug/traces asserting a multi-hop tick trace — coordinator
# fan-out spans for both workers plus the merge — actually landed in the
# flight recorder. See docs/TRACING.md.
trace-smoke:
	@set -e; \
	$(GO) build -o /tmp/cpm-trace-server ./cmd/cpmserver; \
	$(GO) build -o /tmp/cpm-trace-coord ./cmd/cpmcoord; \
	$(GO) build -o /tmp/cpm-trace-load ./cmd/cpmload; \
	trap 'kill $$w1 $$w2 $$co 2>/dev/null || true' EXIT; \
	/tmp/cpm-trace-server -addr 127.0.0.1:17855 & w1=$$!; \
	/tmp/cpm-trace-server -addr 127.0.0.1:17856 & w2=$$!; \
	sleep 1; \
	/tmp/cpm-trace-coord -addr 127.0.0.1:17857 -metrics 127.0.0.1:19103 \
		-workers 127.0.0.1:17855,127.0.0.1:17856 -trace-sample 1 & co=$$!; \
	sleep 1; \
	/tmp/cpm-trace-load -addr 127.0.0.1:17857 -conns 2 -rate 150 -duration 3s -n 500 -queries 20 -trace -trace-top 3; \
	if command -v curl >/dev/null; then \
		traces=$$(curl -sf 127.0.0.1:19103/debug/traces); \
		for want in '"name":"tick"' '"name":"worker0"' '"name":"worker1"' '"name":"merge"'; do \
			echo "$$traces" | grep -q "$$want" || { echo "trace-smoke: $$want missing from /debug/traces" >&2; exit 1; }; \
		done; \
	fi; \
	kill $$co $$w1 $$w2; wait $$co $$w1 $$w2 2>/dev/null || true; \
	echo "trace-smoke: ok"

# Short fuzz runs, each target for FUZZTIME (the seed corpora are checked
# in); CI runs them with a shorter bound. FuzzMonitorOps drives the public
# Monitor API at one and 2–8 shards against each other and the brute-force
# oracle, with the cpmassert guards compiled in; the others fuzz the wire
# codec. -fuzzminimizetime bounds the minimization of each new input: at
# go's default of 60 s a worker stalls for seconds after every input the
# fuzzer keeps, which in a run this short is most of the time.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -tags cpmassert -run='^$$' -fuzz='^FuzzMonitorOps$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x .
	$(GO) test -run='^$$' -fuzz='^FuzzFrame$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzEventRoundTrip$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDiffsRoundTrip$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/wire/

# One iteration of every benchmark — keeps benchmark code compiling and
# running without paying for a full measurement. -benchmem mirrors the CI
# smoke step so allocs/op and B/op are always visible locally.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# The benchmark is a module of its own (benchmark/go.mod), so ./... above
# neither builds nor tests it; its tests (about 10 s) pin the functions of
# the program that benchmark/layers.go calls by hand.
bench-test:
	$(GO) test -C benchmark ./...

# The paper's result as a gate: Figures 6.1, 6.2a, 6.3a and 6.6a at the
# paper's scale over three seeds, every sweep point held to CPM < YPK-CNN <
# SEA-CNN in CPU time and in cell accesses (internal/bench/repro_test.go,
# with its allow-list). About 3 minutes on two cores (2m22s and 2m41s in
# two runs on a quiet 2.1 GHz Xeon with go1.24); ci leaves it out and CI
# runs it in its own job.
repro-gate:
	$(GO) test -tags repro -run '^TestReproGate$$' -count=1 -timeout 60m -v ./internal/bench/

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Files behind a build tag are vetted under that tag: the repro gate's
# file under repro, the guard_on.go assertion files under cpmassert. The
# benchmark is a module of its own, which ./... does not reach.
vet:
	$(GO) vet ./...
	$(GO) vet -tags repro ./internal/bench/
	$(GO) vet -tags cpmassert ./...
	$(GO) vet -C benchmark ./...

ci: fmt-check vet build test assert race bench bench-test
