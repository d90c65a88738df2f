# Development targets for the MANET overhead reproduction.

.PHONY: build test vet race check check-full chaos difftest bench bench-smoke serve-smoke crash-harness worker-chaos storage-chaos

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
# pending-delivery queue, the faults config validator, the daemon's
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

# bench runs every benchmark once (the reproduction scoreboard) and then
# regenerates the machine-readable performance artifact BENCH_8.json:
# Figure 1–3 wall-clock per worker count, the steady-state tick-loop
# throughput vs the growth seed — on the ideal medium, with loss+churn
# faults, and with the full delivery pipeline — the node-count scaling
# sweep (1k/10k/100k at constant density) against the BENCH_3
# full-rescan extrapolation, and the storage-seam row (raw *os.File vs
# the internal/vfs passthrough on the journal append+fsync path; any
# allocation delta aborts the bench). BENCH_1–7.json are the preserved
# artifacts of previous revisions.
bench:
	go test -run '^$$' -bench=. -benchtime=1x .
	go run ./cmd/bench -out BENCH_8.json

# bench-smoke is the CI-sized benchmark gate: the N=1k step loop with
# tile-parallel topology maintenance enabled, under the race detector,
# writing its artifact to a scratch path. It is a correctness smoke, not
# a timing source.
bench-smoke:
	go run -race ./cmd/bench -step-only -step-ticks 120 -n 1000 -tiles 4 -out /tmp/bench-smoke.json

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
