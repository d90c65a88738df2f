package netsim

// pendingDelivery is one delayed point delivery released from the
// engine's pending queue at its due tick.
type pendingDelivery struct {
	msg Message
	rcv NodeID
}

// noSlot ends a slot chain.
const noSlot = -1

// Chain kinds: every parked slot sits on its due tick's bucket chain and
// on its receiver's chain, both in insertion order.
const (
	byDue = iota
	byRcv
)

// slotLinks are a slot's neighbours on one chain.
type slotLinks struct{ prev, next int32 }

// pendingSlot is one arena cell holding a parked delivery. A free slot
// sits on the free list, linked through link[byDue].next.
type pendingSlot struct {
	msg  Message
	due  int64
	rcv  NodeID
	link [2]slotLinks
}

// slotChain is a doubly linked list of arena slots with its length.
type slotChain struct{ head, tail, n int32 }

var emptyChain = slotChain{head: noSlot, tail: noSlot}

// pendingQueue holds delayed point deliveries in one slot arena, grown
// lazily and recycled through a free list. Each parked slot is linked
// into two insertion-ordered chains: the chain of its due tick's ring
// bucket (due tick t lives in buckets[t mod MaxDelayTicks+1]) and the
// chain of its receiver. Because a delay is at most MaxDelayTicks and
// the current tick's bucket is emptied before any new entry is parked,
// a bucket never holds two distinct due ticks at once.
//
// Each receiving node holds at most `limit` entries; parking beyond that
// first evicts the receiver's oldest entry (smallest due tick, then
// earliest insertion — plain drop-oldest), found on the receiver's own
// chain. Evicted and released slots go straight back to the free list,
// so the arena never holds more than n × limit slots and no operation
// scans another receiver's frames.
type pendingQueue struct {
	slots   []pendingSlot
	free    int32 // head of the free list
	buckets []slotChain
	rcvs    []slotChain
	limit   int32
	out     []pendingDelivery // take's reused result buffer
}

// newPendingQueue sizes the ring for n nodes with the given per-receiver
// bound (callers resolve the DefaultPendingLimit fallback). The arena
// itself grows on demand.
func newPendingQueue(n, limit int) *pendingQueue {
	q := &pendingQueue{
		free:    noSlot,
		buckets: make([]slotChain, MaxDelayTicks+1),
		rcvs:    make([]slotChain, n),
		limit:   int32(limit),
	}
	for i := range q.buckets {
		q.buckets[i] = emptyChain
	}
	for i := range q.rcvs {
		q.rcvs[i] = emptyChain
	}
	return q
}

// add parks one delivery due at tick due, which must satisfy
// now < due ≤ now+MaxDelayTicks. It reports whether the receiver's queue
// was full and an older entry was evicted to make room (the new entry
// itself is always parked).
func (q *pendingQueue) add(now, due int64, rcv NodeID, msg Message) (evicted bool) {
	if q.rcvs[rcv].n >= q.limit {
		q.evictOldest(now, rcv)
		evicted = true
	}
	i := q.alloc()
	s := &q.slots[i]
	s.msg, s.due, s.rcv = msg, due, rcv
	q.push(&q.buckets[due%int64(len(q.buckets))], byDue, i)
	q.push(&q.rcvs[rcv], byRcv, i)
	return evicted
}

// evictOldest drops the receiver's oldest entry: the first one on its
// insertion-ordered chain with the smallest due tick. No entry is due
// before now+1, so the walk stops at the first slot due then.
func (q *pendingQueue) evictOldest(now int64, rcv NodeID) {
	best := q.rcvs[rcv].head
	for i := q.slots[best].link[byRcv].next; i != noSlot && q.slots[best].due > now+1; i = q.slots[i].link[byRcv].next {
		if q.slots[i].due < q.slots[best].due {
			best = i
		}
	}
	q.unlink(&q.buckets[q.slots[best].due%int64(len(q.buckets))], byDue, best)
	q.unlink(&q.rcvs[rcv], byRcv, best)
	q.release(best)
}

// take removes and returns the entries due at the given tick, in
// insertion order. The returned slice is reused by the next take, so
// callers must consume it within the current tick.
func (q *pendingQueue) take(tick int64) []pendingDelivery {
	b := &q.buckets[tick%int64(len(q.buckets))]
	if b.n == 0 {
		return nil
	}
	if cap(q.out) < int(b.n) {
		q.out = make([]pendingDelivery, 0, 2*b.n)
	}
	out := q.out[:0]
	for i := b.head; i != noSlot; {
		s := &q.slots[i]
		next := s.link[byDue].next
		out = append(out, pendingDelivery{msg: s.msg, rcv: s.rcv})
		q.unlink(&q.rcvs[s.rcv], byRcv, i)
		q.release(i)
		i = next
	}
	*b = emptyChain
	q.out = out
	return out
}

// alloc returns a free slot, growing the arena when the free list is
// empty. Growth doubles, capped at n × limit slots, so a warm arena
// has headroom over its peak and the tick loop stops allocating.
func (q *pendingQueue) alloc() int32 {
	if i := q.free; i != noSlot {
		q.free = q.slots[i].link[byDue].next
		return i
	}
	if len(q.slots) == cap(q.slots) {
		c := min(max(2*cap(q.slots), 64), len(q.rcvs)*int(q.limit))
		grown := make([]pendingSlot, len(q.slots), c)
		copy(grown, q.slots)
		q.slots = grown
	}
	q.slots = append(q.slots, pendingSlot{})
	return int32(len(q.slots) - 1)
}

// release returns a slot that is already off both chains to the free
// list, dropping its message so the payload can be collected.
func (q *pendingQueue) release(i int32) {
	s := &q.slots[i]
	s.msg = Message{}
	s.link[byDue].next = q.free
	q.free = i
}

// push appends slot i to the tail of chain c of the given kind.
func (q *pendingQueue) push(c *slotChain, kind int, i int32) {
	q.slots[i].link[kind] = slotLinks{prev: c.tail, next: noSlot}
	if c.tail == noSlot {
		c.head = i
	} else {
		q.slots[c.tail].link[kind].next = i
	}
	c.tail = i
	c.n++
}

// unlink removes slot i from chain c of the given kind.
func (q *pendingQueue) unlink(c *slotChain, kind int, i int32) {
	l := q.slots[i].link[kind]
	if l.prev == noSlot {
		c.head = l.next
	} else {
		q.slots[l.prev].link[kind].next = l.next
	}
	if l.next == noSlot {
		c.tail = l.prev
	} else {
		q.slots[l.next].link[kind].prev = l.prev
	}
	c.n--
}
