package netsim

// seqWindowBits is the span of the CLUSTER class's anti-replay bitmap:
// per (receiver, sender) pair the window remembers the highest sequence
// seen and which of the previous 63 sequences arrived.
const seqWindowBits = 64

// seqFilter is the engine's receive-side sequence check, applied to
// every point delivery before any protocol sees it. Protocols stamp
// Message.Seq per sender and per class (0 = unsequenced, always
// accepted); sequence numbers are comparable only within one class, so
// each class has its own table, indexed [rcv*n+from]:
//
//   - MsgHello and MsgRoute are latest-wins: a frame at or below the
//     highest sequence accepted so far is a duplicate or has been
//     overtaken by a newer one, and is rejected. A beacon or a whole
//     distance vector supersedes every earlier one, so a stale frame
//     must never roll a table back.
//   - MsgCluster is an anti-replay window (the IPsec sequence-window
//     idea): only an exact re-delivery or a frame ≥ seqWindowBits
//     below the highest seen is rejected. CLUSTER frames carry distinct
//     payloads (a JOIN and the ACK that answers it), and under jitter a
//     head's ACK is routinely leapfrogged by its next broadcast;
//     latest-wins would discard a message that was never delivered.
//   - Other classes pass unchecked.
//
// The Sim creates the filter only when a sequenced frame is first
// delayed or duplicated (see Sim.drainQueue for why a table that starts
// empty then decides exactly as one that saw the whole run).
type seqFilter struct {
	n            int
	hello, route []uint32 // highest accepted seq
	clusterHead  []uint32 // highest seq seen
	clusterMask  []uint64 // bit d set ⇔ seq (head − d) arrived
}

func newSeqFilter(n int) *seqFilter {
	nn := n * n
	return &seqFilter{
		n:           n,
		hello:       make([]uint32, nn),
		route:       make([]uint32, nn),
		clusterHead: make([]uint32, nn),
		clusterMask: make([]uint64, nn),
	}
}

// fresh reports whether a frame of the given kind from→rcv carrying seq
// should be delivered, and records it.
func (f *seqFilter) fresh(rcv, from NodeID, kind MsgKind, seq uint32) bool {
	if seq == 0 {
		return true
	}
	idx := int(rcv)*f.n + int(from)
	switch kind {
	case MsgHello:
		return latestWins(f.hello, idx, seq)
	case MsgRoute:
		return latestWins(f.route, idx, seq)
	case MsgCluster:
		return f.window(idx, seq)
	}
	return true
}

// latestWins accepts seq iff it exceeds the highest accepted so far.
func latestWins(seen []uint32, idx int, seq uint32) bool {
	if seq <= seen[idx] {
		return false
	}
	seen[idx] = seq
	return true
}

// window accepts seq unless it was seen already or lies seqWindowBits or
// more below the highest seen.
func (f *seqFilter) window(idx int, seq uint32) bool {
	head := f.clusterHead[idx]
	switch {
	case seq > head:
		if shift := seq - head; shift >= seqWindowBits {
			f.clusterMask[idx] = 0
		} else {
			f.clusterMask[idx] <<= shift
		}
		f.clusterMask[idx] |= 1
		f.clusterHead[idx] = seq
		return true
	case head-seq >= seqWindowBits:
		return false
	default:
		bit := uint64(1) << (head - seq)
		if f.clusterMask[idx]&bit != 0 {
			return false
		}
		f.clusterMask[idx] |= bit
		return true
	}
}
