package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"repro/internal/checkpoint"
)

// Distributed sweep execution: wire protocol and lease state machine.
//
// A distributed job is the same deterministic job the daemon always
// ran, executed by remote workers one point-shard at a time. The
// coordinator shards the job's sweep plan into leases (point set +
// scenario fingerprint + deadline); a worker claims a lease, runs the
// ordinary figure/measure driver with a point filter admitting only its
// leased points, and streams each completed point back as a
// CRC-checksummed checkpoint record. The coordinator ingests records
// into the job's journal with first-committed-wins semantics and, once
// every point is journaled, renders the artifact by pure journal
// replay — which is why the merged output is byte-identical to a
// single-process run for any worker count, crash schedule, or
// re-dispatch interleaving.
//
// Failure handling is lease-shaped:
//
//   - crash/partition: heartbeats stop; the lease expires after
//     LeaseTTL and its unfinished points re-enter the pool behind a
//     decorrelated-jitter backoff gate.
//   - straggler/hang: a lease older than LeaseMaxAge is revoked even
//     while heartbeats keep arriving — liveness of the process is not
//     progress of the computation.
//   - duplicate results: a revoked or partition-healed worker may still
//     stream points it finished; they are accepted (verified by CRC and
//     fingerprint) and deduplicated by the journal, so late work is
//     never wasted and never double-counted.
//   - deterministic point failure: a worker reports the failed points;
//     they re-dispatch with growing backoff until MaxPointAttempts,
//     after which the job fails with the worker's error.

// DefaultMaxWireBytes bounds every worker-protocol request body. Result
// messages carry one JSON-encoded sweep point, which is small; anything
// larger is a confused or hostile client.
const DefaultMaxWireBytes = 64 << 10

// Lease is one unit of distributed work: a set of sweep points of one
// job, granted to one worker until Deadline (extended by heartbeats, up
// to the coordinator's straggler cap).
type Lease struct {
	// ID names the grant; heartbeats and results quote it.
	ID string `json:"id"`
	// Job is the coordinator's job id, for observability.
	Job string `json:"job"`
	// Fingerprint is the job's scenario fingerprint. Results are bound
	// to it: a record for the wrong fingerprint is rejected before it
	// can touch the journal.
	Fingerprint string `json:"fp"`
	// Sweep and Points name the leased shard of the job's sweep plan.
	Sweep  string `json:"sweep"`
	Points []int  `json:"points"`
	// Seed is the sweep's base seed; records must carry it.
	Seed uint64 `json:"seed"`
	// Spec is the full job spec: the worker re-runs the same
	// deterministic driver the coordinator would have run locally.
	Spec JobSpec `json:"spec"`
	// TTLMS is the heartbeat deadline in milliseconds: a worker that
	// lets this lapse without a heartbeat loses the lease.
	TTLMS int64 `json:"ttl_ms"`
	// Attempt counts grants of this shard (1 = first dispatch).
	Attempt int `json:"attempt"`
}

// Validate rejects malformed leases before a worker acts on one.
func (l Lease) Validate() error {
	if l.ID == "" || l.Fingerprint == "" || l.Sweep == "" {
		return fmt.Errorf("service: lease missing id, fingerprint or sweep")
	}
	if len(l.Points) == 0 || len(l.Points) > 1<<16 {
		return fmt.Errorf("service: lease must carry between 1 and 65536 points, got %d", len(l.Points))
	}
	for _, p := range l.Points {
		if p < 0 || p > 1<<20 {
			return fmt.Errorf("service: lease point index %d out of range", p)
		}
	}
	if l.TTLMS <= 0 || l.TTLMS > 24*60*60*1000 {
		return fmt.Errorf("service: lease ttl_ms must be in (0, 86400000], got %d", l.TTLMS)
	}
	if l.Attempt < 1 {
		return fmt.Errorf("service: lease attempt must be >= 1, got %d", l.Attempt)
	}
	if err := l.Spec.Validate(); err != nil {
		return err
	}
	return nil
}

// ClaimRequest asks the coordinator for a lease.
type ClaimRequest struct {
	// Worker names the claiming worker (diagnostics and the worker
	// registry); required.
	Worker string `json:"worker"`
}

// HeartbeatRequest extends a lease's deadline.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// ResultRequest streams one completed sweep point back to the
// coordinator. The record carries its own CRC, computed by the worker's
// encoder, so corruption anywhere between the worker's memory and the
// coordinator's journal is detected.
type ResultRequest struct {
	Worker string `json:"worker"`
	// Fingerprint must match the lease's job; it is the key the
	// coordinator routes the record by, so a result outlives its lease:
	// a revoked worker's late point is still mergeable.
	Fingerprint string            `json:"fp"`
	Record      checkpoint.Record `json:"record"`
}

// DoneRequest reports the outcome of a lease's unstreamed remainder: the
// points the worker's driver failed (deterministically) rather than
// completed. An empty Failed list just retires the lease early.
type DoneRequest struct {
	Worker string `json:"worker"`
	// Failed lists leased points the driver returned an error for.
	Failed []int `json:"failed,omitempty"`
	// Error is the driver's message, kept for the job's failure reason.
	Error string `json:"error,omitempty"`
}

// decodeStrict is the shared strict decoder of every worker-protocol
// message: size-limited, unknown fields rejected, trailing data
// rejected. It mirrors DecodeJobSpec so the whole wire surface fails
// closed.
func decodeStrict(r io.Reader, limit int64, v any) error {
	if limit <= 0 {
		limit = DefaultMaxWireBytes
	}
	lr := &io.LimitedReader{R: r, N: limit + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if lr.N <= 0 || errors.As(err, &maxErr) {
			return fmt.Errorf("service: message exceeds %d bytes", limit)
		}
		return fmt.Errorf("service: decoding message: %w", err)
	}
	if lr.N <= 0 {
		return fmt.Errorf("service: message exceeds %d bytes", limit)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("service: trailing data after message")
	}
	return nil
}

// DecodeLease reads and validates one lease (the worker's side of a
// claim response).
func DecodeLease(r io.Reader, limit int64) (Lease, error) {
	var l Lease
	if err := decodeStrict(r, limit, &l); err != nil {
		return Lease{}, err
	}
	if err := l.Validate(); err != nil {
		return Lease{}, err
	}
	return l, nil
}

// DecodeClaim reads and validates one claim request.
func DecodeClaim(r io.Reader, limit int64) (ClaimRequest, error) {
	var c ClaimRequest
	if err := decodeStrict(r, limit, &c); err != nil {
		return ClaimRequest{}, err
	}
	if c.Worker == "" || len(c.Worker) > 128 {
		return ClaimRequest{}, fmt.Errorf("service: claim worker name must be 1..128 bytes")
	}
	return c, nil
}

// DecodeHeartbeat reads and validates one heartbeat request.
func DecodeHeartbeat(r io.Reader, limit int64) (HeartbeatRequest, error) {
	var h HeartbeatRequest
	if err := decodeStrict(r, limit, &h); err != nil {
		return HeartbeatRequest{}, err
	}
	if h.Worker == "" || len(h.Worker) > 128 {
		return HeartbeatRequest{}, fmt.Errorf("service: heartbeat worker name must be 1..128 bytes")
	}
	return h, nil
}

// DecodeResult reads and validates one streamed point result. The
// record's CRC is verified here, before the message reaches any state.
func DecodeResult(r io.Reader, limit int64) (ResultRequest, error) {
	var res ResultRequest
	if err := decodeStrict(r, limit, &res); err != nil {
		return ResultRequest{}, err
	}
	if res.Worker == "" || len(res.Worker) > 128 {
		return ResultRequest{}, fmt.Errorf("service: result worker name must be 1..128 bytes")
	}
	if res.Fingerprint == "" || len(res.Fingerprint) > 64 {
		return ResultRequest{}, fmt.Errorf("service: result fingerprint must be 1..64 bytes")
	}
	if res.Record.Sweep == "" || res.Record.Point < 0 || res.Record.Result == nil {
		return ResultRequest{}, fmt.Errorf("service: result record is incomplete")
	}
	if !res.Record.Verify() {
		return ResultRequest{}, fmt.Errorf("service: result record CRC mismatch")
	}
	return res, nil
}

// DecodeDone reads and validates one lease-outcome report.
func DecodeDone(r io.Reader, limit int64) (DoneRequest, error) {
	var d DoneRequest
	if err := decodeStrict(r, limit, &d); err != nil {
		return DoneRequest{}, err
	}
	if d.Worker == "" || len(d.Worker) > 128 {
		return DoneRequest{}, fmt.Errorf("service: done worker name must be 1..128 bytes")
	}
	if len(d.Failed) > 1<<16 {
		return DoneRequest{}, fmt.Errorf("service: done lists too many failed points")
	}
	for _, p := range d.Failed {
		if p < 0 || p > 1<<20 {
			return DoneRequest{}, fmt.Errorf("service: done failed point index %d out of range", p)
		}
	}
	if len(d.Error) > 4096 {
		d.Error = d.Error[:4096]
	}
	return d, nil
}

// ErrLeaseGone marks a heartbeat or report against a lease the
// coordinator no longer honors (expired, revoked as a straggler, or
// retired). The worker should abandon the shard; any points it already
// streamed are safe.
var ErrLeaseGone = errors.New("service: lease is no longer held")

// leasePoint is the coordinator-side state of one sweep point.
type leasePoint struct {
	index     int
	done      bool
	holder    string // lease id, "" when unheld
	attempts  int
	notBefore time.Time // re-dispatch backoff gate
}

// activeLease is one live grant.
type activeLease struct {
	id        string
	worker    string
	points    []int
	attempt   int
	grantedAt time.Time
	lastBeat  time.Time
}

// LeaseTableConfig shapes one job's lease table.
type LeaseTableConfig struct {
	Job         string
	Fingerprint string
	Sweep       string
	Seed        uint64
	Spec        JobSpec
	// TTL is the heartbeat deadline: a lease not heartbeated for TTL is
	// considered dead and its points re-enter the pool.
	TTL time.Duration
	// MaxAge is the straggler cap: a lease older than MaxAge is revoked
	// even with live heartbeats — a frozen worker that still heartbeats
	// must not hold the sweep hostage.
	MaxAge time.Duration
	// PointsPerLease bounds the shard size of one grant.
	PointsPerLease int
	// MaxAttempts bounds re-dispatches of one point before the job is
	// declared failed.
	MaxAttempts int
	// Backoff shapes the re-dispatch delay of expired/failed points.
	Backoff Backoff
	// Rng drives the backoff jitter; required.
	Rng *rand.Rand
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
	// OnExpire, when non-nil, observes every revocation (stats).
	OnExpire func(leaseID, worker string)
}

func (c LeaseTableConfig) withDefaults() LeaseTableConfig {
	if c.TTL <= 0 {
		c.TTL = 10 * time.Second
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 10 * c.TTL
	}
	if c.PointsPerLease <= 0 {
		c.PointsPerLease = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Backoff.Base <= 0 {
		c.Backoff.Base = 250 * time.Millisecond
	}
	if c.Backoff.Cap <= 0 {
		c.Backoff.Cap = 10 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// LeaseTable is the coordinator's per-job lease state machine. It owns
// which points are pending, leased, or done, grants shards to claiming
// workers, expires dead and straggling leases, and gates re-dispatch
// behind decorrelated-jitter backoff. The journal merge itself lives
// with the Manager (which owns the job's journal handle); the table is
// pure bookkeeping, which is what makes it property-testable.
//
// Invariant (tested): a point has at most one holder among live leases,
// because a grant only covers unheld points and every revocation clears
// holdership before the point becomes grantable again — first-committed
// results from revoked leases are deduplicated by the journal, not the
// table.
type LeaseTable struct {
	cfg    LeaseTableConfig
	points []leasePoint
	leases map[string]*activeLease
	next   int // lease id counter
	prev   time.Duration
	failed error
}

// NewLeaseTable builds the table over the job's not-yet-journaled
// points (the Manager passes only what resume left undone).
func NewLeaseTable(cfg LeaseTableConfig, pending []int) *LeaseTable {
	cfg = cfg.withDefaults()
	t := &LeaseTable{cfg: cfg, leases: map[string]*activeLease{}}
	for _, p := range pending {
		t.points = append(t.points, leasePoint{index: p})
	}
	sort.Slice(t.points, func(i, k int) bool { return t.points[i].index < t.points[k].index })
	return t
}

// All methods below are called with the Manager's lock held (the table
// has no lock of its own); the Manager serializes every protocol event.

// Claim grants a shard to a worker: up to PointsPerLease unheld,
// not-done points whose backoff gate has passed, lowest indices first.
// It returns nil when nothing is currently grantable, with a hint for
// when the worker should ask again (0 = the job is finished here).
func (t *LeaseTable) Claim(worker string, now time.Time) (*Lease, time.Duration) {
	t.expireLocked(now)
	if t.failed != nil {
		return nil, 0
	}
	var grant []int
	wait := time.Duration(-1)
	attempt := 0
	for i := range t.points {
		p := &t.points[i]
		if p.done || p.holder != "" {
			continue
		}
		if p.notBefore.After(now) {
			if d := p.notBefore.Sub(now); wait < 0 || d < wait {
				wait = d
			}
			continue
		}
		grant = append(grant, p.index)
		if p.attempts+1 > attempt {
			attempt = p.attempts + 1
		}
		if len(grant) >= t.cfg.PointsPerLease {
			break
		}
	}
	if len(grant) == 0 {
		if wait < 0 {
			// Nothing pending at all: done, failed, or every remaining
			// point is in flight elsewhere — nothing for this worker.
			if t.Done() {
				return nil, 0
			}
			wait = t.cfg.TTL / 2
		}
		return nil, wait
	}
	t.next++
	l := &activeLease{
		id:     fmt.Sprintf("%s-L%04d", t.cfg.Job, t.next),
		worker: worker, points: grant, attempt: attempt,
		grantedAt: now, lastBeat: now,
	}
	t.leases[l.id] = l
	for i := range t.points {
		for _, g := range grant {
			if t.points[i].index == g {
				t.points[i].holder = l.id
				t.points[i].attempts++
			}
		}
	}
	return &Lease{
		ID: l.id, Job: t.cfg.Job, Fingerprint: t.cfg.Fingerprint,
		Sweep: t.cfg.Sweep, Points: grant, Seed: t.cfg.Seed,
		Spec: t.cfg.Spec, TTLMS: t.cfg.TTL.Milliseconds(), Attempt: attempt,
	}, 0
}

// Heartbeat extends a live lease. ErrLeaseGone tells the worker its
// grant was expired or revoked and it should abandon the shard.
func (t *LeaseTable) Heartbeat(id string, now time.Time) error {
	t.expireLocked(now)
	l, ok := t.leases[id]
	if !ok {
		return ErrLeaseGone
	}
	l.lastBeat = now
	return nil
}

// MarkDone records one point as journaled (however it got there) and
// retires any lease whose every point is now done.
func (t *LeaseTable) MarkDone(point int) {
	for i := range t.points {
		if t.points[i].index == point {
			t.points[i].done = true
			t.points[i].holder = ""
		}
	}
	for id, l := range t.leases {
		if t.allDone(l.points) {
			delete(t.leases, id)
		}
	}
}

// Report settles a worker's end-of-lease report: failed points rejoin
// the pool behind backoff (or fail the job past MaxAttempts), and the
// lease is retired. Reporting a gone lease is ErrLeaseGone; the caller
// has already merged any streamed results, so the worker loses nothing.
func (t *LeaseTable) Report(id string, failed []int, msg string, now time.Time) error {
	t.expireLocked(now)
	l, ok := t.leases[id]
	if !ok {
		return ErrLeaseGone
	}
	delete(t.leases, id)
	for i := range t.points {
		p := &t.points[i]
		if p.holder != id {
			continue
		}
		p.holder = ""
		if !containsPoint(failed, p.index) {
			continue
		}
		if p.attempts >= t.cfg.MaxAttempts {
			if msg == "" {
				msg = "point failed"
			}
			t.failed = fmt.Errorf("service: sweep point %d failed %d times (last worker %s): %s",
				p.index, p.attempts, l.worker, msg)
			continue
		}
		t.prev = t.cfg.Backoff.Next(t.prev, t.cfg.Rng)
		p.notBefore = now.Add(t.prev)
	}
	return nil
}

// expireLocked revokes dead (heartbeat TTL lapsed) and straggling
// (older than MaxAge) leases; their unfinished points re-enter the pool
// behind a fresh backoff gate.
func (t *LeaseTable) expireLocked(now time.Time) {
	for id, l := range t.leases {
		dead := now.Sub(l.lastBeat) > t.cfg.TTL
		stale := now.Sub(l.grantedAt) > t.cfg.MaxAge
		if !dead && !stale {
			continue
		}
		delete(t.leases, id)
		if t.cfg.OnExpire != nil {
			t.cfg.OnExpire(id, l.worker)
		}
		t.prev = t.cfg.Backoff.Next(t.prev, t.cfg.Rng)
		for i := range t.points {
			p := &t.points[i]
			if p.holder == id {
				p.holder = ""
				if !p.done {
					p.notBefore = now.Add(t.prev)
				}
			}
		}
	}
}

// Expire is the watchdog entry point: revoke what is due at now.
func (t *LeaseTable) Expire(now time.Time) { t.expireLocked(now) }

// Done reports whether every point is journaled.
func (t *LeaseTable) Done() bool {
	for i := range t.points {
		if !t.points[i].done {
			return false
		}
	}
	return true
}

// Failed returns the table's terminal failure, if any.
func (t *LeaseTable) Failed() error { return t.failed }

// Remaining reports the number of unjournaled points (stats).
func (t *LeaseTable) Remaining() int {
	n := 0
	for i := range t.points {
		if !t.points[i].done {
			n++
		}
	}
	return n
}

// Holder returns the lease id holding a point ("" when unheld), for
// invariant checks in tests.
func (t *LeaseTable) Holder(point int) string {
	for i := range t.points {
		if t.points[i].index == point {
			return t.points[i].holder
		}
	}
	return ""
}

func (t *LeaseTable) allDone(points []int) bool {
	for _, p := range points {
		for i := range t.points {
			if t.points[i].index == p && !t.points[i].done {
				return false
			}
		}
	}
	return true
}

func containsPoint(s []int, p int) bool {
	for _, v := range s {
		if v == p {
			return true
		}
	}
	return false
}
