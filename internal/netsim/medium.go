package netsim

import "repro/internal/simrand"

// MaxDelayTicks is the upper bound on per-delivery latency a Medium may
// request through Fate.Delay. It sizes the engine's pending-delivery
// ring, so it is a hard contract: the engine clamps larger values. 512
// ticks is far beyond any plausible MANET frame latency at the tick
// granularities the experiments use.
const MaxDelayTicks = 512

// DefaultPendingLimit is the per-receiver bound on parked (delayed)
// deliveries when Config.PendingLimit is zero. When a node's pending
// queue is full, the oldest parked delivery is evicted (drop-oldest) and
// counted in Tallies.Overflow — the discrete analogue of a bounded
// receive buffer under load.
const DefaultPendingLimit = 64

// Fate is a Medium's verdict on one point delivery (one broadcast × one
// receiving neighbor). The zero Fate is an immediate, unduplicated
// delivery — exactly the ideal medium.
type Fate struct {
	// Drop loses the delivery outright; the remaining fields are ignored.
	Drop bool
	// Delay parks the delivery for this many ticks before the receiver's
	// OnMessage fires (0 = same-tick delivery, the ideal path). Values
	// above MaxDelayTicks are clamped. Because different deliveries may
	// draw different delays, delayed traffic naturally reorders across
	// ticks.
	Delay int32
	// Dup delivers a second copy of the frame, with its own DupDelay
	// latency (the model duplicates at most once per point delivery).
	Dup bool
	// DupDelay is the duplicate copy's latency in ticks, under the same
	// rules as Delay.
	DupDelay int32
}

// Medium abstracts the fault behavior of the broadcast medium and of the
// nodes themselves. The engine's default (a nil Medium) is the paper's
// ideal regime: every broadcast reaches every in-range neighbor within
// the same tick and every node is always up. A non-nil Medium — in
// practice a faults.Injector — lets experiments depart from that regime
// deterministically:
//
//   - Alive gates a node's radio: a dead node contributes no adjacency
//     (all its links read as broken), receives nothing and transmits
//     nothing, which is how crash/recover churn manifests to protocols
//     as ordinary link-break/link-generation events.
//   - Cut severs individual links regardless of geometry, which models
//     transient network partitions: while a pair is cut, its link reads
//     as broken even though both radios are up and in range.
//   - Deliver decides each point delivery independently, returning a
//     Fate that may drop, delay (and thereby reorder) or duplicate the
//     frame.
//
// Determinism contract: implementations must derive every decision from
// the simrand.Source handed to Reset and from the call coordinates (tick,
// sequence number, endpoints) — never from wall clock, map iteration
// order or global state — so a run remains bit-for-bit reproducible from
// its seed.
type Medium interface {
	// Reset binds the medium to a run: the node count and the dedicated
	// fault stream family rooted at the run's master seed. The engine
	// calls it once, before initial topology computation.
	Reset(n int, src simrand.Source)
	// Advance moves time-driven fault state (e.g. churn schedules,
	// partition windows) to the given tick. The engine calls it once per
	// tick, after mobility and before topology recomputation; tick 0 is
	// the initial state.
	Advance(tick int64)
	// Alive reports whether the node's radio is up at the current tick.
	Alive(id NodeID) bool
	// Cut reports whether the link between a and b is severed at the
	// current tick (a partition artifact). The engine consults it during
	// topology recomputation for every in-range pair, so it must be
	// cheap; media without partitions return false unconditionally.
	//
	// Cut must be symmetric: Cut(a, b) == Cut(b, a) at every tick. The
	// engine relies on it to keep the adjacency symmetric, and
	// Sim.IsNeighbor answers the same-tick (receiver, sender) pair of a
	// delivery without a search because the receiver was found in the
	// sender's row.
	Cut(a, b NodeID) bool
	// Deliver decides the fate of one point delivery from→to. seq is the
	// run-global delivery attempt counter (strictly increasing), so
	// repeated deliveries over the same link draw independently.
	Deliver(seq int64, from, to NodeID) Fate
}
