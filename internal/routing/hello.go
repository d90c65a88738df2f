// Package routing implements the routing substrate of the paper's model:
// HELLO-based neighbor discovery with soft-timer break detection, the
// hybrid routing protocol the analysis assumes (proactive distance-vector
// routing inside each cluster, reactive discovery across clusters), and
// flat DSDV-style and AODV-style baselines used to reproduce the paper's
// motivation that flat proactive routing does not scale.
package routing

import (
	"fmt"

	"repro/internal/netsim"
)

// HelloMode selects how HELLO beacons are emitted.
type HelloMode int

const (
	// HelloOnLinkGen sends one beacon per endpoint per new link — the
	// paper's lower bound (Eqn 4): f_hello = λ_gen, with link breaks
	// detected for free by soft timers.
	HelloOnLinkGen HelloMode = iota + 1
	// HelloPeriodic sends one beacon per node every Interval — the
	// conventional implementation the lower bound idealizes.
	HelloPeriodic
)

// Hello is the neighbor-discovery protocol. Besides accounting for HELLO
// traffic it maintains per-node neighbor tables from the beacons it
// actually hears, so tests can verify that the lower-bound beacon rate
// still keeps tables synchronized with the true topology.
type Hello struct {
	mode     HelloMode
	bits     float64
	interval float64 // beacon period for HelloPeriodic
	timeout  float64 // soft-timer expiry for heard neighbors

	env      netsim.Env
	lastSent float64
	// heard[a] is node a's neighbor table, sorted by id: each row holds
	// the time a last heard that neighbor's beacon.
	heard [][]heardRow
	// seqOut[a] is node a's beacon sequence counter; filter rejects
	// stale and duplicated beacons under delaying/reordering media.
	seqOut []uint32
	filter *netsim.SeqFilter
}

var _ netsim.Protocol = (*Hello)(nil)

// heardRow is one neighbor-table row: node id, last heard at time t.
type heardRow struct {
	id netsim.NodeID
	t  float64
}

// findHeard returns the index of id in a sorted neighbor table, or the
// index where it would be inserted, and whether it is present.
func findHeard(tbl []heardRow, id netsim.NodeID) (int, bool) {
	lo, hi := 0, len(tbl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tbl[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tbl) && tbl[lo].id == id
}

// forget drops b from a's neighbor table, if present.
func (h *Hello) forget(a, b netsim.NodeID) {
	tbl := h.heard[a]
	if k, ok := findHeard(tbl, b); ok {
		h.heard[a] = append(tbl[:k], tbl[k+1:]...)
	}
}

// NewHello builds the lower-bound (event-driven) HELLO protocol.
func NewHello(bits float64) (*Hello, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("routing: hello size must be positive, got %g", bits)
	}
	return &Hello{mode: HelloOnLinkGen, bits: bits}, nil
}

// NewPeriodicHello builds the conventional periodic HELLO protocol with
// the given beacon interval; neighbors not heard for 2.5 intervals are
// dropped from the table (the usual allowed-loss-of-two-beacons rule).
func NewPeriodicHello(bits, interval float64) (*Hello, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("routing: hello size must be positive, got %g", bits)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("routing: hello interval must be positive, got %g", interval)
	}
	return &Hello{mode: HelloPeriodic, bits: bits, interval: interval, timeout: 2.5 * interval}, nil
}

// Name implements netsim.Protocol.
func (h *Hello) Name() string { return "hello" }

// Start implements netsim.Protocol: every node beacons once so initial
// neighbor tables are populated. The initial burst is not part of the
// steady-state measurements (experiments snapshot tallies after warmup).
func (h *Hello) Start(env netsim.Env) error {
	h.env = env
	h.heard = make([][]heardRow, env.NumNodes())
	h.seqOut = make([]uint32, env.NumNodes())
	h.filter = netsim.NewSeqFilter(env.NumNodes())
	for i := 0; i < env.NumNodes(); i++ {
		h.beacon(netsim.NodeID(i), false)
	}
	return nil
}

// OnLinkEvent implements netsim.Protocol: in lower-bound mode both
// endpoints of a fresh link announce themselves; soft timers cover
// breaks without any transmission.
func (h *Hello) OnLinkEvent(ev netsim.LinkEvent) {
	if h.mode != HelloOnLinkGen {
		return
	}
	if ev.Up {
		h.beacon(ev.A, ev.Border)
		h.beacon(ev.B, ev.Border)
	} else {
		// Soft timer: drop silently on both sides.
		h.forget(ev.A, ev.B)
		h.forget(ev.B, ev.A)
	}
}

// OnMessage implements netsim.Protocol: receiving a HELLO refreshes the
// sender's entry in the receiver's table. Two hardening guards protect
// the table under non-ideal media: stale or duplicated beacons (sequence
// number at or below one already accepted) are rejected, and a beacon
// from a node that is no longer a neighbor is ignored — a delayed frame
// must not resurrect an entry the soft timer already dropped. On the
// ideal medium both guards never fire: same-tick delivery implies the
// sender is a current neighbor and beacons arrive in sequence order.
func (h *Hello) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	if msg.Kind != netsim.MsgHello {
		return
	}
	if !h.filter.Fresh(rcv, msg.From, msg.Seq) {
		return
	}
	if !h.env.IsNeighbor(rcv, msg.From) {
		return
	}
	tbl := h.heard[rcv]
	k, ok := findHeard(tbl, msg.From)
	if !ok {
		tbl = append(tbl, heardRow{})
		copy(tbl[k+1:], tbl[k:])
		tbl[k].id = msg.From
		h.heard[rcv] = tbl
	}
	tbl[k].t = h.env.Now()
}

// OnTick implements netsim.Protocol: periodic beaconing and soft-timer
// expiry.
func (h *Hello) OnTick(now float64) {
	if h.mode != HelloPeriodic {
		return
	}
	if now-h.lastSent >= h.interval {
		h.lastSent = now
		for i := 0; i < h.env.NumNodes(); i++ {
			h.beacon(netsim.NodeID(i), false)
		}
	}
	for i, tbl := range h.heard {
		kept := 0
		for _, r := range tbl {
			if now-r.t > h.timeout {
				continue
			}
			tbl[kept] = r
			kept++
		}
		h.heard[i] = tbl[:kept]
	}
}

// beacon broadcasts one sequence-stamped HELLO from the given node.
func (h *Hello) beacon(from netsim.NodeID, border bool) {
	h.seqOut[from]++
	h.env.Broadcast(netsim.Message{
		Kind:   netsim.MsgHello,
		From:   from,
		Bits:   h.bits,
		Border: border,
		Seq:    h.seqOut[from],
	})
}

// Knows reports whether node a currently has node b in its neighbor
// table.
func (h *Hello) Knows(a, b netsim.NodeID) bool {
	_, ok := findHeard(h.heard[a], b)
	return ok
}

// TableSize returns the current neighbor-table size of a node.
func (h *Hello) TableSize(id netsim.NodeID) int { return len(h.heard[id]) }
