# Development targets for the MANET overhead reproduction.

.PHONY: build test vet race check check-full chaos difftest results-check bench bench-pair bench-smoke serve-smoke crash-harness worker-chaos storage-chaos

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race ./...

# check is the pre-merge gate: static analysis, the test suite in short
# mode under the race detector (this includes the 24-scenario two-way
# differential lockstep matrix and the metamorphic/conformance gates of
# internal/difftest), and short fuzz smokes over the checkpoint journal
# and job-log decoders, the netsim config validator, the
# pending-delivery queue, the engine's sequence filters, the faults
# config validator, the daemon's
# HTTP job-spec decoder, the distributed-sweep wire protocol (lease
# grants plus the coordinator's claim/heartbeat/result/done decoders),
# and the storage fault-plan decoder.
check:
	go vet ./... && go test -race -short -count=1 ./...
	go test -run '^$$' -fuzz FuzzJournalDecode -fuzztime 5s ./internal/checkpoint
	go test -run '^$$' -fuzz FuzzJobLogDecode -fuzztime 5s ./internal/checkpoint
	go test -run '^$$' -fuzz FuzzFaultPlanDecode -fuzztime 5s ./internal/vfs
	go test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 5s ./internal/netsim
	go test -run '^$$' -fuzz FuzzPendingQueue -fuzztime 5s ./internal/netsim
	go test -run '^$$' -fuzz FuzzSeqFilters -fuzztime 5s ./internal/netsim
	go test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 5s ./internal/faults
	go test -run '^$$' -fuzz FuzzJobSpecDecode -fuzztime 5s ./internal/service
	go test -run '^$$' -fuzz FuzzLeaseDecode -fuzztime 5s ./internal/service
	go test -run '^$$' -fuzz FuzzWireDecode -fuzztime 5s ./internal/service

# check-full is the CI deep gate: the whole suite — 48 lockstep
# scenarios, full-length statistical conformance — with caching off.
check-full:
	go vet ./... && go test -race -count=1 ./...

# chaos is the convergence-SLO soak: the randomized pathology matrix
# (loss + delay/jitter + duplication + moving partitions) under the race
# detector, demanding that every partition heal reaches cluster and
# route convergence before the next onset. Short mode keeps it a quick
# focused gate; check-full runs the full matrix as part of the suite.
chaos:
	go test -race -short -count=1 -run TestChaosConvergence -v ./internal/experiments

# difftest runs only the correctness harness (differential oracle,
# metamorphic invariances, statistical conformance) at full size.
difftest:
	go test -count=1 -v ./internal/difftest/ ./internal/refsim/

# results-check regenerates every figure into a temporary directory and
# fails unless it holds exactly the committed results/*.csv files, each
# byte-identical: any diff, missing file or extra file fails.
results-check:
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	go run ./cmd/figures -workers 2 -out "$$out" > /dev/null || exit 1; \
	status=0; \
	for f in results/*.csv; do cmp "$$f" "$$out/$${f#results/}" || status=1; done; \
	for f in "$$out"/*; do test -e "results/$${f##*/}" || { echo "results-check: results/$${f##*/} is not committed"; status=1; }; done; \
	test $$status -eq 0 && echo "results-check: $$(ls results/*.csv | wc -l) files match"; \
	exit $$status

# bench runs the Go benchmarks with five samples per row and allocation
# counts (feed the output to benchstat to compare two trees). The root
# package's figure and ablation benchmarks regenerate whole sweeps, so
# each sample is one run; the engine rows run at the default benchtime:
# netsim.BenchmarkStep's tick loop from 400 to 100k nodes at constant
# density (canonical and low mobility, and a forced full rescan of the
# canonical scenario) and faults.BenchmarkStepMedia's N=400 loop with a
# beaconing protocol on the ideal medium, under loss+churn and under the
# full delivery pipeline.
# perfbench/run.sh is the end-to-end benchmark of record.
bench:
	go test -run '^$$' -bench=. -benchtime=1x -count=5 -benchmem .
	go test -run '^$$' -bench=. -count=5 -benchmem ./internal/...

# bench-pair compares perfbench between commit BASE and HEAD on workload
# W: it clones both commits into sibling directories under .bench_pair/
# and alternates K runs per side of BENCHMARK.json's run_seconds (pair i
# uses seed i on both sides), then prints per-metric medians, the
# parent's interquartile range, the change/parent ratio and the win
# count, then each pair's end-to-end values. Only committed code is
# measured. Example:
#   make bench-pair BASE=HEAD~1 W=lossy_churn K=10
K ?= 5
bench-pair:
	@test -n "$(BASE)" -a -n "$(W)" || { echo "usage: make bench-pair BASE=<rev> W=<workload> [K=5]"; exit 2; }
	go run scripts/benchpair.go -base '$(BASE)' -workload '$(W)' -k $(K)

# bench-smoke is the CI-sized benchmark gate: 120 ticks of the N=1k
# canonical step loop under the race detector, so the benchmark still
# builds and runs on a real workload. It is a smoke, not a timing source.
# A -bench pattern that matches no row still exits 0, so the target
# fails unless the row's result line is in the output.
bench-smoke:
	@out=$$(go test -race -run '^$$' -bench 'BenchmarkStep/n1k/canonical$$' -benchtime 120x ./internal/netsim) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep -Eq '^BenchmarkStep/n1k/canonical(-[0-9]+)?[[:space:]]' || { echo "bench-smoke: BenchmarkStep/n1k/canonical did not run"; exit 1; }

# serve-smoke is the daemon's end-to-end gate, race-enabled: build the
# real manetsimd binary, start it, verify liveness, submit a job,
# provoke one 429 shed under admission control, then SIGTERM it and
# require a graceful drain with exit code 0 and the standardized drain
# message.
serve-smoke:
	go test -race -tags servesmoke -run TestServeSmoke -count=1 -v ./cmd/manetsimd

# crash-harness is the crash-safety acceptance check: a real daemon
# process is SIGKILLed mid-sweep, then a restart over the same state
# directory must resume the job and produce an artifact byte-identical
# to an uninterrupted run, for sweep worker counts 1 and 2.
crash-harness:
	go test -race -tags crashharness -run TestCrashKillRecovery -count=1 -v ./internal/service

# worker-chaos is the distributed-sweep acceptance check: a real
# coordinator process and four real worker processes run a scripted
# kill/hang/partition schedule — one worker SIGKILLed provably
# mid-point, one SIGSTOPped (partition) and later resumed to stream a
# stale duplicate, one hung inside a point with live heartbeats, plus
# two coordinator SIGKILL+restarts over the same state directory. The
# merged artifact must be byte-identical to an uninterrupted
# single-process run; any diff fails the gate.
worker-chaos:
	go test -race -tags workerchaos -run TestWorkerChaos -count=1 -v ./internal/service

# storage-chaos is the storage-fault acceptance check: the daemon runs
# over a deterministic fault-injecting filesystem under scripted and
# randomized schedules of ENOSPC, I/O errors, short writes, fsync
# failures and crash-point truncations. Every schedule must end either
# in a loud failure with all previously acknowledged records intact, or
# in a restart over the repaired filesystem whose artifact is
# byte-identical to an uninterrupted run.
storage-chaos:
	go test -race -tags storagechaos -run TestStorageChaos -count=1 -v ./internal/service
