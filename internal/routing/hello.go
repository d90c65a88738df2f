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
	// heard[a][b] is the time node a last heard node b's beacon.
	heard []map[netsim.NodeID]float64
	// seqOut[a] is node a's beacon sequence counter; filter rejects
	// stale and duplicated beacons under delaying/reordering media.
	seqOut []uint32
	filter *netsim.SeqFilter
}

var _ netsim.Protocol = (*Hello)(nil)

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
	h.heard = make([]map[netsim.NodeID]float64, env.NumNodes())
	for i := range h.heard {
		h.heard[i] = make(map[netsim.NodeID]float64)
	}
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
		delete(h.heard[ev.A], ev.B)
		delete(h.heard[ev.B], ev.A)
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
	h.heard[rcv][msg.From] = h.env.Now()
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
	for _, tbl := range h.heard {
		for nb, t := range tbl {
			if now-t > h.timeout {
				delete(tbl, nb)
			}
		}
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
	_, ok := h.heard[a][b]
	return ok
}

// TableSize returns the current neighbor-table size of a node.
func (h *Hello) TableSize(id netsim.NodeID) int { return len(h.heard[id]) }
