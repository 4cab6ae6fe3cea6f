GO ?= go

# Raced separately so `make check` stays fast. What has real goroutines to
# race: sharded workers (sim/shard, netem, interdomain's control engine),
# transport sessions and their delivery sinks, and obs instruments scraped
# mid-run; the rest is raced because the facade tests below drive it from
# those goroutines. The transport — the one boundary with real concurrency,
# whose close/redial/ordering bugs are timing-dependent — runs five times on
# a line of its own. The root run adds the session/owner boundary
# (TestNetworkConcurrentSessionsChurn, TestNetworkConcurrentPublishSameID,
# TestFailoverHealthEndpointRace), the Sync barrier with shard-worker sinks
# while another session sends requests (TestNetworkSyncBarrierAcrossSessions),
# event values decoded by a client's reader goroutine and kept past their
# handler (TestHandlersKeepDeliveredValues) and an advertisement withdrawn and
# advertised again over TCP (TestReadvertiseAfterUnadvertise,
# TestReadvertiseFromAnotherClient) and the controller swaps under /readyz
# (TestReadyzFollowsLifecycle, TestRestoreReplaysJournalSuffix).
RACE_PKGS := ./internal/dz/... ./internal/core/... ./internal/netem/... ./internal/openflow/... ./internal/workload/... ./internal/obs/... ./internal/sim/... ./internal/interdomain/... ./internal/wire/...

.PHONY: check vet build test race bench-module fuzz soak bench loc obs-demo daemon-demo

check: vet build test race bench-module

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=5 ./internal/transport/...
	$(GO) test -race -run 'Fault|Resync|Sharded|WithShards|Failover|Snapshot|Journal|Restore|Readyz|Close|Loopback|Network|Restart|Trace|Pipelined|Demux|ControlChurn|PublishAdmission|KeepDeliveredValues|Readvertise' -count=1 .

# cmd/pleroma-bench is a module of its own and a client of internal APIs
# (wire codecs, transport.Backend), so root build/test never compile it:
# vet and test it here, or an internal-API break stays invisible until the
# performance gate runs.
bench-module:
	$(GO) vet -C cmd/pleroma-bench .
	$(GO) test -C cmd/pleroma-bench .

# Short fuzz regression: every differential target replays its committed
# seed corpus plus FUZZTIME of fresh mutation (go test fuzzes one target of
# one package per run). The list is package:target — what each is the oracle
# of is said at the target. A new fuzz target goes here; CI runs the list.
# go test exits 0 on a -fuzz pattern that names no target, so the loop first
# asks go test -list for the target and fails when the package lacks it.
FUZZTIME ?= 5s
FUZZ_TARGETS := \
	./internal/wire:FuzzDecodeFrame \
	./internal/wire:FuzzDecodeControlReq \
	./internal/wire:FuzzDecodePublish \
	./internal/wire:FuzzDecodeDeliverBatch \
	./internal/wire:FuzzFrameStream \
	./internal/wire:FuzzDecodeSignal \
	.:FuzzHostDemux \
	./internal/sim:FuzzEventQueueOrder \
	./internal/core:FuzzFlowDerivation \
	./internal/core:FuzzJournalOpen \
	./internal/dz:FuzzTrieVsNaive \
	./internal/dz:FuzzEncodeKeyVsExpr \
	./internal/dz:FuzzKeyOrderVsExpr \
	./internal/dz:FuzzDecomposeLimitedVsString \
	./internal/dz:FuzzSetAlgebraOldVsNew \
	./internal/openflow:FuzzLookupKeyVsAddr
fuzz:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; target=$${pt##*:}; \
		echo "--- $$pkg $$target"; \
		$(GO) test $$pkg -list "^$$target$$" | grep -qx "$$target" || { echo "fuzz: $$pkg has no $$target"; exit 1; }; \
		$(GO) test $$pkg -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit $$?; \
	done

# Long-running churn soaks against the public API, raced: exact-delivery
# ground truth plus fault-injection convergence (resync heals every round).
soak:
	$(GO) test -race -run Soak -count=1 -v .

# The repository's one performance record: every workload BENCHMARK.json
# declares, in the driver's form (end-to-end metrics; pass --trace 1 by hand
# for the per-layer split). See cmd/pleroma-bench/README.md.
BENCH_WORKLOADS := tcp-pipe tcp-rtt inproc-fanout ctl-churn
bench:
	@for w in $(BENCH_WORKLOADS); do \
		echo "--- $$w"; \
		bash cmd/pleroma-bench/run.sh --workload $$w --seed 12 --seconds 10 --trace 0 || exit $$?; \
	done

# Non-test Go lines (wc -l) of the areas the simplification issues track,
# and of the whole repository.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }; \
	w=$$(count internal/wire -maxdepth 1); t=$$(count internal/transport -maxdepth 1); f=$$(count . -maxdepth 1); \
	echo "internal/wire       $$w"; \
	echo "internal/transport  $$t"; \
	echo "root facade         $$f"; \
	echo "wire+transport+root $$((w + t + f))"; \
	echo "internal/core       $$(count internal/core -maxdepth 1)"; \
	echo "internal/interdomain $$(count internal/interdomain -maxdepth 1)"; \
	echo "internal/obs        $$(count internal/obs -maxdepth 1)"; \
	echo "internal/experiments $$(count internal/experiments -maxdepth 1)"; \
	echo "repository          $$(count . -path ./.bench_build -prune -o)"

# Networked deployment smoke test: boot pleroma-d on loopback, attach a
# subscriber process and a publisher process, and check the delivery
# lands — the README quickstart, end to end.
daemon-demo:
	@set -e; \
	$(GO) build -o /tmp/pleroma-d ./cmd/pleroma-d; \
	$(GO) build -o /tmp/pleroma-pub ./cmd/pleroma-pub; \
	$(GO) build -o /tmp/pleroma-sub ./cmd/pleroma-sub; \
	/tmp/pleroma-d -listen 127.0.0.1:9478 > /tmp/pleroma-d.log & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 20); do \
		grep -q 'listening on' /tmp/pleroma-d.log 2>/dev/null && break; sleep 0.5; \
	done; \
	echo "--- daemon"; cat /tmp/pleroma-d.log; \
	/tmp/pleroma-sub -addr 127.0.0.1:9478 -id alerts -filter "price:0-99" -n 1 -for 30s > /tmp/pleroma-sub.log & spid=$$!; \
	for i in $$(seq 1 20); do \
		grep -q 'subscribed' /tmp/pleroma-sub.log 2>/dev/null && break; sleep 0.5; \
	done; \
	echo "--- publisher"; /tmp/pleroma-pub -addr 127.0.0.1:9478 -id ticker -events "42,1000;500,17"; \
	wait $$spid; \
	echo "--- subscriber"; cat /tmp/pleroma-sub.log; \
	grep -q 'received 1 deliveries' /tmp/pleroma-sub.log; \
	kill -TERM $$pid; wait $$pid || true; \
	echo "daemon-demo: OK"

# Boot an instrumented demo deployment, probe its operational endpoints,
# and shut it down — a smoke test for the /metrics and /healthz surface.
obs-demo:
	@set -e; \
	$(GO) run ./cmd/pleroma-sim -obs-addr 127.0.0.1:9477 -obs-duration 10s & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 20); do \
		curl -fsS http://127.0.0.1:9477/healthz >/dev/null 2>&1 && break; sleep 0.5; \
	done; \
	echo "--- /healthz"; curl -fsS http://127.0.0.1:9477/healthz; \
	echo "--- /metrics (head)"; curl -fsS http://127.0.0.1:9477/metrics | head -n 25; \
	echo "--- /traces (head)"; curl -fsS http://127.0.0.1:9477/traces | head -n 10; \
	wait $$pid
