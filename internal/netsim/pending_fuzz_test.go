package netsim

import (
	"testing"
)

// FuzzPendingQueue drives the slot-arena pending-delivery queue against
// a naive flat-slice model over arbitrary add/advance schedules. The
// contract under test:
//
//   - take(t) returns exactly the model's live entries due at t, in
//     insertion order (FIFO tie-break within a tick);
//   - add reports an eviction exactly when the receiver already holds
//     `limit` live entries, and the evicted entry is the receiver's
//     oldest live one — smallest due tick, then earliest insertion;
//   - the arena never holds more than n × limit slots, and the live
//     count always matches the model's;
//   - every receiver chain and ring bucket is empty once every due tick
//     has been taken.
func FuzzPendingQueue(f *testing.F) {
	f.Add(uint8(2), uint8(1), []byte{7, 3, 7, 3, 7, 3, 0, 0, 7, 200, 0, 0})
	f.Add(uint8(3), uint8(2), []byte{1, 1, 2, 1, 1, 255, 0, 0, 2, 4})
	f.Add(uint8(1), uint8(4), []byte{9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 0, 0})
	f.Add(uint8(0), uint8(0), []byte{})
	// One receiver mixing delay 1 with MaxDelayTicks: the eviction walk
	// must skip the far-due entries inserted before the near ones.
	f.Add(uint8(0), uint8(2), []byte{1, 255, 1, 255, 1, 0, 1, 0, 1, 255, 0, 0, 1, 0, 1, 255, 1, 0})
	f.Add(uint8(1), uint8(3), []byte{2, 255, 2, 255, 2, 255, 2, 9, 2, 0, 2, 255, 0, 0, 2, 0, 2, 0, 0, 0, 2, 18})

	f.Fuzz(func(t *testing.T, nRaw, limitRaw uint8, ops []byte) {
		n := 1 + int(nRaw)%4
		limit := 1 + int(limitRaw)%5
		q := newPendingQueue(n, limit)

		// The reference model: a flat append-only list of parked
		// deliveries, each carrying a unique marker in Message.Bits so
		// streams can be compared element by element.
		type modelEntry struct {
			due  int64
			rcv  NodeID
			mark float64
			dead bool
		}
		var model []modelEntry
		now := int64(0)
		liveFor := func(rcv NodeID) int {
			c := 0
			for _, e := range model {
				if !e.dead && e.rcv == rcv {
					c++
				}
			}
			return c
		}
		checkBound := func(op string) {
			if len(q.slots) > n*limit {
				t.Fatalf("after %s: arena holds %d slots, bound n×limit is %d", op, len(q.slots), n*limit)
			}
			live, inUse := 0, 0
			for _, e := range model {
				if !e.dead {
					live++
				}
			}
			for _, c := range q.rcvs {
				inUse += int(c.n)
			}
			if inUse != live {
				t.Fatalf("after %s: queue holds %d slots in use, model has %d live entries", op, inUse, live)
			}
		}
		takeTick := func() {
			now++
			var want []float64
			rest := model[:0]
			for _, e := range model {
				if e.due != now {
					rest = append(rest, e)
				} else if !e.dead {
					want = append(want, e.mark)
				}
			}
			model = rest
			var got []float64
			for _, p := range q.take(now) {
				got = append(got, p.msg.Bits)
			}
			if len(got) != len(want) {
				t.Fatalf("tick %d: take returned %d entries, model has %d live", now, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("tick %d: entry %d: got mark %g, want %g (order or eviction broken)",
						now, i, got[i], want[i])
				}
			}
			checkBound("take")
		}

		mark := 0.0
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			if a%5 == 0 {
				takeTick()
				continue
			}
			rcv := NodeID(int(a) % n)
			d := 1 + int64(b)%9
			if b == 255 {
				d = MaxDelayTicks
			}
			mark++
			evicted := q.add(now, now+d, rcv, Message{Bits: mark})
			wantEvict := liveFor(rcv) >= limit
			if evicted != wantEvict {
				t.Fatalf("add #%g for rcv %d: evicted=%v, model says %v (live %d, limit %d)",
					mark, rcv, evicted, wantEvict, liveFor(rcv), limit)
			}
			if wantEvict {
				// Tombstone the receiver's oldest live entry: smallest
				// due, then earliest insertion (model is in insertion
				// order, so strict < keeps the first among equals).
				best := -1
				for j := range model {
					if model[j].dead || model[j].rcv != rcv {
						continue
					}
					if best == -1 || model[j].due < model[best].due {
						best = j
					}
				}
				model[best].dead = true
			}
			model = append(model, modelEntry{due: now + d, rcv: rcv, mark: mark})
			checkBound("add")
		}

		// Drain: after MaxDelayTicks more takes nothing can remain parked.
		for i := 0; i <= MaxDelayTicks; i++ {
			takeTick()
		}
		if len(model) != 0 {
			t.Fatalf("model still holds %d entries after a full drain", len(model))
		}
		for rcv, c := range q.rcvs {
			if c != emptyChain {
				t.Fatalf("receiver %d chain %+v not empty after a full drain", rcv, c)
			}
		}
		for b, c := range q.buckets {
			if c != emptyChain {
				t.Fatalf("bucket %d chain %+v not empty after a full drain", b, c)
			}
		}
	})
}
