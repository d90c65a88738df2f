package routing

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/netsim"
)

// InfMetric is the unreachable distance (clusters are one-hop, so any
// real intra-cluster route has metric ≤ 2; 16 leaves generous margin for
// transient states).
const InfMetric = 16

// Entry is one distance-vector table row: the DSDV triple of destination
// sequence number, metric and next hop.
type Entry struct {
	Dest    netsim.NodeID
	NextHop netsim.NodeID
	Metric  int
	// Seq is the destination-owned sequence number: even numbers are
	// issued by the destination itself, odd numbers mark broken-route
	// advertisements issued by a detecting neighbor.
	Seq uint32
}

// vectorAd is the payload of a MsgRoute broadcast: the sender's current
// vector for its cluster.
type vectorAd struct {
	Cluster netsim.NodeID
	// Rows are in strictly increasing Dest order, the order of the
	// sender's table. OnMessage relies on it: it folds the rows into the
	// receiver's equally sorted table with a single forward cursor.
	Rows []Entry
}

// dvRow is one row of a node's table: the DSDV entry and its soft-state
// lease, the time the entry's next hop last advertised support for it.
// A lease of 0 means none was ever granted, or it expired.
type dvRow struct {
	Entry
	lease float64
}

// findRow returns the index of dest in a Dest-sorted table, or the
// index where it would be inserted, and whether it is present.
func findRow(tbl []dvRow, dest netsim.NodeID) (int, bool) {
	lo, hi := 0, len(tbl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tbl[mid].Dest < dest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tbl) && tbl[lo].Dest == dest
}

// IntraDV is a working DSDV-style distance-vector protocol scoped to
// each cluster: every node owns a monotone sequence number for its own
// entry, advertises its vector to same-cluster neighbors, adopts routes
// with newer sequence numbers (or equal sequence and better metric), and
// poisons routes through broken links with odd-sequence infinite-metric
// advertisements. Updates are triggered and cascade within a tick until
// the cluster quiesces, so tables are always converged between ticks —
// the property the paper's "steady state" analysis assumes and that
// TestIntraDVConvergedTables verifies against BFS ground truth.
//
// IntraDV complements the accounting-oriented Hybrid protocol: Hybrid
// prices table rounds exactly as Eqns (13)–(14) do, while IntraDV runs
// the actual distributed machinery those rounds idealize. Register it
// after the cluster.Maintainer it follows.
type IntraDV struct {
	cl        *cluster.Maintainer
	entryBits float64

	env netsim.Env
	// tables[i] is node i's table, sorted by Dest. It always holds the
	// node's own row: Start seeds it and no path removes it.
	tables   [][]dvRow
	ownSeq   []uint32
	dirty    []bool
	prevHead []netsim.NodeID

	// advSeq numbers each node's advertisements (distinct from the DSDV
	// destination sequence numbers inside the rows); by it the engine
	// rejects stale and medium-duplicated adverts, so a delayed vector
	// cannot roll a table back or re-trigger a cascade.
	advSeq []uint32

	// Soft state (EnableSoftState): routes expire unless refreshed, so
	// tables survive a medium that silently loses advertisements.
	softTTL     float64 // seconds a route lives without support; 0 = off
	softRefresh float64 // seconds between periodic refresh advertisements
	lastAdv     []float64
}

var _ netsim.Protocol = (*IntraDV)(nil)

// NewIntraDV builds the protocol on top of a cluster maintainer.
func NewIntraDV(cl *cluster.Maintainer, entryBits float64) (*IntraDV, error) {
	if cl == nil {
		return nil, fmt.Errorf("routing: nil cluster maintainer")
	}
	if entryBits <= 0 {
		return nil, fmt.Errorf("routing: entry size must be positive, got %g", entryBits)
	}
	return &IntraDV{cl: cl, entryBits: entryBits}, nil
}

// EnableSoftState makes route entries soft state: every node
// re-advertises its vector at least every refreshInterval seconds, and an
// entry that goes ttl seconds without a supporting advertisement from its
// next hop is expired (poisoned) instead of trusted forever. The default
// hard-state behavior assumes the ideal medium's guaranteed delivery;
// soft state is what keeps tables truthful when a fault medium silently
// drops advertisements. ttl must exceed refreshInterval (several times
// over, to ride out individual losses). Must be called before Start.
func (dv *IntraDV) EnableSoftState(refreshInterval, ttl float64) error {
	if dv.env != nil {
		return fmt.Errorf("routing: EnableSoftState after Start")
	}
	if !(refreshInterval > 0) || !(ttl > refreshInterval) {
		return fmt.Errorf("routing: need ttl > refresh interval > 0, got ttl=%g refresh=%g", ttl, refreshInterval)
	}
	dv.softRefresh = refreshInterval
	dv.softTTL = ttl
	return nil
}

// Name implements netsim.Protocol.
func (dv *IntraDV) Name() string { return "routing/intra-dv" }

// Start implements netsim.Protocol: seed every node's table with itself
// and advertise, letting the cascade converge each cluster.
func (dv *IntraDV) Start(env netsim.Env) error {
	dv.env = env
	n := env.NumNodes()
	dv.tables = make([][]dvRow, n)
	dv.ownSeq = make([]uint32, n)
	dv.dirty = make([]bool, n)
	dv.prevHead = make([]netsim.NodeID, n)
	dv.advSeq = make([]uint32, n)
	if dv.softTTL > 0 {
		dv.lastAdv = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		dv.prevHead[i] = dv.cl.HeadOf(netsim.NodeID(i))
		id := netsim.NodeID(i)
		dv.tables[i] = []dvRow{{Entry: Entry{Dest: id, NextHop: id, Metric: 0, Seq: 0}}}
		dv.advertise(id)
	}
	return nil
}

// OnLinkEvent implements netsim.Protocol. A break poisons routes whose
// next hop just vanished; any event involving a node makes it re-
// advertise, which re-converges the affected cluster within the tick.
func (dv *IntraDV) OnLinkEvent(ev netsim.LinkEvent) {
	if !ev.Up {
		dv.poison(ev.A, ev.B)
		dv.poison(ev.B, ev.A)
	}
	dv.markDirty(ev.A)
	dv.markDirty(ev.B)
}

// poison marks every route of `at` that runs through the lost neighbor
// as broken: infinite metric with the next odd sequence number, the DSDV
// break advertisement.
func (dv *IntraDV) poison(at, lost netsim.NodeID) {
	tbl := dv.tables[at]
	for k := range tbl {
		if e := &tbl[k].Entry; e.Dest != at && e.NextHop == lost && e.Metric < InfMetric {
			e.Metric = InfMetric
			e.Seq++ // even destination-issued → odd broken
		}
	}
}

// OnMessage implements netsim.Protocol: fold a neighbor's vector into
// the receiver's table under the DSDV adoption rule, and re-advertise on
// change (the in-tick cascade).
func (dv *IntraDV) OnMessage(rcv netsim.NodeID, msg netsim.Message) {
	if msg.Kind != netsim.MsgRoute {
		return
	}
	ad, ok := msg.Payload.(vectorAd)
	if !ok {
		return // a Hybrid accounting round or foreign payload
	}
	// Hardening against delaying/reordering media: the engine has already
	// withheld out-of-sequence adverts (an old vector must never roll the
	// table back); adverts from nodes that are no longer neighbors are
	// ignored here (adopting them would install a next hop the receiver
	// cannot reach). The engine answers the guard for a same-tick delivery
	// without a search (the receiver sits in the sender's row); only
	// frames released from its pending queue pay for one.
	if !dv.env.IsNeighbor(rcv, msg.From) {
		return
	}
	if dv.cl.HeadOf(rcv) != ad.Cluster || dv.cl.HeadOf(msg.From) != ad.Cluster {
		return // stale cross-cluster advertisement
	}
	// Both the advert and the table are sorted by Dest, so one forward
	// cursor j over the table meets every row's destination: a merge
	// join, with a row the table lacks inserted at the cursor.
	changed := false
	now := dv.env.Now()
	tbl := dv.tables[rcv]
	j := 0
	for _, row := range ad.Rows {
		for j < len(tbl) && tbl[j].Dest < row.Dest {
			j++
		}
		if row.Dest == rcv {
			// The destination outruns any stale report about itself.
			if row.Seq > dv.ownSeq[rcv] {
				dv.ownSeq[rcv] = row.Seq + 2 - row.Seq%2
				tbl[j].Entry = Entry{Dest: rcv, NextHop: rcv, Metric: 0, Seq: dv.ownSeq[rcv]}
				changed = true
			}
			continue
		}
		cand := Entry{Dest: row.Dest, NextHop: msg.From, Metric: row.Metric + 1, Seq: row.Seq}
		if cand.Metric > InfMetric {
			cand.Metric = InfMetric
		}
		if j == len(tbl) || tbl[j].Dest != row.Dest {
			tbl = append(tbl, dvRow{})
			copy(tbl[j+1:], tbl[j:])
			tbl[j] = dvRow{Entry: cand}
			changed = true
		} else if cur := tbl[j].Entry; cand.Seq > cur.Seq || (cand.Seq == cur.Seq && cand.Metric < cur.Metric) {
			tbl[j].Entry = cand
			if cand != cur {
				changed = true
			}
		}
		if dv.softTTL > 0 {
			// The advertisement supports whatever live route through this
			// neighbor the table now holds — refresh its lease.
			if r := &tbl[j]; r.NextHop == msg.From && r.Metric < InfMetric {
				r.lease = now
			}
		}
	}
	dv.tables[rcv] = tbl
	if changed {
		dv.advertise(rcv)
	}
}

// OnTick implements netsim.Protocol: purge departed members, refresh own
// sequence numbers of nodes whose cluster changed, expire unsupported
// soft-state routes, and flush dirty advertisements.
func (dv *IntraDV) OnTick(now float64) {
	n := dv.env.NumNodes()
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		own := dv.cl.HeadOf(id)
		if own != dv.prevHead[i] {
			// Re-clustered without a link event at this node (e.g. its
			// head resigned): rebuild from scratch.
			dv.prevHead[i] = own
			dv.dirty[i] = true
		}
		// Purge rows of departed members, keeping Dest order; the self
		// row stays, and self tracks where it lands.
		tbl := dv.tables[i]
		kept, self := 0, 0
		for _, r := range tbl {
			if r.Dest != id && dv.cl.HeadOf(r.Dest) != own {
				dv.dirty[i] = true
				continue
			}
			if r.Dest == id {
				self = kept
			}
			tbl[kept] = r
			kept++
		}
		tbl = tbl[:kept]
		dv.tables[i] = tbl
		if dv.softTTL > 0 {
			dv.expireStale(id, now)
			if now-dv.lastAdv[i] >= dv.softRefresh {
				dv.dirty[i] = true
			}
		}
		if dv.dirty[i] {
			dv.dirty[i] = false
			// Bump the even self-sequence so stale reports lose.
			dv.ownSeq[i] += 2
			tbl[self].Entry = Entry{Dest: id, NextHop: id, Metric: 0, Seq: dv.ownSeq[i]}
			dv.advertise(id)
		}
	}
}

// expireStale poisons every live route of `at` whose lease ran out: its
// next hop has not advertised support within the TTL, so under a lossy
// medium the route can no longer be assumed valid. The poison re-enters
// the normal DSDV break machinery (odd sequence, infinite metric), so a
// still-working neighbor simply re-announces the route next refresh.
func (dv *IntraDV) expireStale(at netsim.NodeID, now float64) {
	tbl := dv.tables[at]
	for k := range tbl {
		r := &tbl[k]
		if r.Dest == at || r.Metric >= InfMetric {
			continue
		}
		if now-r.lease > dv.softTTL {
			r.Metric = InfMetric
			if r.Seq%2 == 0 {
				r.Seq++ // destination-issued even → broken odd
			}
			r.lease = 0
			dv.dirty[at] = true
		}
	}
}

// markDirty schedules a node for re-advertisement at tick end.
func (dv *IntraDV) markDirty(id netsim.NodeID) {
	dv.dirty[id] = true
}

// advertise broadcasts the node's current vector for its cluster, its
// rows in table (Dest) order. The rows get their own slice: a delaying
// medium may hold the advert for many ticks while the table moves on.
func (dv *IntraDV) advertise(from netsim.NodeID) {
	if dv.softTTL > 0 {
		dv.lastAdv[from] = dv.env.Now()
	}
	own := dv.cl.HeadOf(from)
	tbl := dv.tables[from]
	rows := make([]Entry, len(tbl))
	for k := range tbl {
		rows[k] = tbl[k].Entry
	}
	dv.advSeq[from]++
	dv.env.Broadcast(netsim.Message{
		Kind:    netsim.MsgRoute,
		From:    from,
		Bits:    dv.entryBits * float64(len(rows)),
		Seq:     dv.advSeq[from],
		Payload: vectorAd{Cluster: own, Rows: rows},
	})
}

// Lookup returns the node's live table entry for dest, if any
// (unreachable-poisoned entries do not count as live).
func (dv *IntraDV) Lookup(at, dest netsim.NodeID) (Entry, bool) {
	tbl := dv.tables[at]
	k, ok := findRow(tbl, dest)
	if !ok || tbl[k].Metric >= InfMetric {
		return Entry{}, false
	}
	return tbl[k].Entry, true
}

// TableSize returns the number of live entries at a node.
func (dv *IntraDV) TableSize(at netsim.NodeID) int {
	count := 0
	for _, r := range dv.tables[at] {
		if r.Metric < InfMetric {
			count++
		}
	}
	return count
}

// Route follows next hops from src toward a same-cluster dst, returning
// the forwarding path the distributed tables actually produce, or false
// when no live route exists. Loops abort (they would indicate a protocol
// bug; the convergence test asserts they never happen).
func (dv *IntraDV) Route(src, dst netsim.NodeID) ([]netsim.NodeID, bool) {
	path := []netsim.NodeID{src}
	at := src
	for at != dst {
		e, ok := dv.Lookup(at, dst)
		if !ok {
			return nil, false
		}
		at = e.NextHop
		path = append(path, at)
		if len(path) > InfMetric {
			return nil, false
		}
	}
	return path, true
}
