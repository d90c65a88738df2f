package netsim

import (
	"fmt"
	"testing"
)

// seqStreamKey is one sender's stream of one class at one receiver.
type seqStreamKey struct {
	kind      MsgKind
	rcv, from NodeID
}

// seqModel states the class rules the obvious way, on maps: the highest
// sequence seen per stream and the set of every CLUSTER frame accepted.
type seqModel struct {
	highest map[seqStreamKey]uint32
	arrived map[seqStreamKey]map[uint32]bool
}

func newSeqModel() *seqModel {
	return &seqModel{highest: map[seqStreamKey]uint32{}, arrived: map[seqStreamKey]map[uint32]bool{}}
}

func (m *seqModel) fresh(rcv, from NodeID, kind MsgKind, seq uint32) bool {
	if seq == 0 {
		return true
	}
	k := seqStreamKey{kind, rcv, from}
	top := m.highest[k]
	switch kind {
	case MsgHello, MsgRoute:
		if seq <= top {
			return false
		}
	case MsgCluster:
		if seq+seqWindowBits <= top || m.arrived[k][seq] {
			return false
		}
		if m.arrived[k] == nil {
			m.arrived[k] = map[uint32]bool{}
		}
		m.arrived[k][seq] = true
	default:
		return true
	}
	if seq > top {
		m.highest[k] = seq
	}
	return true
}

// TestSeqFilterClassRules pins each class rule on one (receiver, sender)
// pair, for the dense tables and for the map model the fuzz target
// trusts.
func TestSeqFilterClassRules(t *testing.T) {
	type frame struct {
		seq  uint32
		want bool
	}
	latest := []MsgKind{MsgHello, MsgRoute}
	window := []MsgKind{MsgCluster}
	unchecked := []MsgKind{MsgRouteDiscovery, MsgData}
	cases := []struct {
		name   string
		kinds  []MsgKind
		frames []frame
	}{
		{"seq 0 always passes", []MsgKind{MsgHello, MsgRoute, MsgCluster},
			[]frame{{0, true}, {0, true}, {5, true}, {0, true}, {5, false}, {0, true}}},
		{"exact duplicate rejected", append(append([]MsgKind{}, latest...), window...),
			[]frame{{1, true}, {1, false}, {2, true}, {2, false}, {2, false}}},
		{"leapfrogged frame rejected by latest-wins", latest,
			[]frame{{1, true}, {3, true}, {2, false}, {4, true}}},
		{"leapfrogged frame accepted once by the window", window,
			[]frame{{1, true}, {3, true}, {2, true}, {2, false}, {4, true}, {3, false}}},
		{"frame 64 or more behind the window rejected", window,
			[]frame{{100, true}, {37, true}, {36, false}, {1, false}, {37, false}}},
		{"jump of 63 keeps the mask", window,
			[]frame{{1, true}, {2, true}, {65, true}, {2, false}, {3, true}, {1, false}}},
		{"jump of 64 or more clears the mask", window,
			[]frame{{1, true}, {2, true}, {66, true}, {3, true}, {3, false}, {2, false},
				{1000, true}, {937, true}, {66, false}}},
		{"other classes unchecked", unchecked,
			[]frame{{5, true}, {5, true}, {4, true}}},
	}
	for _, c := range cases {
		for _, kind := range c.kinds {
			t.Run(fmt.Sprintf("%s/%v", c.name, kind), func(t *testing.T) {
				dense, model := newSeqFilter(3), newSeqModel()
				for i, fr := range c.frames {
					if got := dense.fresh(2, 1, kind, fr.seq); got != fr.want {
						t.Errorf("frame %d (seq %d): dense fresh = %v, want %v", i, fr.seq, got, fr.want)
					}
					if got := model.fresh(2, 1, kind, fr.seq); got != fr.want {
						t.Errorf("frame %d (seq %d): model fresh = %v, want %v", i, fr.seq, got, fr.want)
					}
				}
				// Other streams are untouched: the reverse pair, another
				// receiver and another class all still accept the first
				// sequenced frame they see.
				for _, k := range []struct {
					rcv, from NodeID
					kind      MsgKind
				}{{1, 2, kind}, {0, 1, kind}, {2, 1, otherClass(kind)}} {
					if !dense.fresh(k.rcv, k.from, k.kind, 1) {
						t.Errorf("stream %d←%d %v rejected its first frame", k.rcv, k.from, k.kind)
					}
				}
			})
		}
	}
}

// otherClass returns a checked class different from k.
func otherClass(k MsgKind) MsgKind {
	if k == MsgHello {
		return MsgCluster
	}
	return MsgHello
}

// FuzzSeqFilters drives the dense class tables against the map model
// over arbitrary frame streams, including the engine's lazy creation:
// the dense filter is created at op `start`. Before it, the fuzzer's
// frames are forced in order per stream (each seq above the stream's
// last), which is what every delivery looks like until a sequenced frame
// is delayed or duplicated, and the model must accept them all. After
// it, every frame's seq is shifted above everything its stream carried
// before creation (later broadcasts carry higher seqs) and may otherwise
// be reordered, duplicated or far stale; the dense filter, which never
// saw the prefix, must agree with the model, which did, on every frame.
func FuzzSeqFilters(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{1, 0, 5, 0, 1, 0, 5, 0, 1, 0, 3, 0, 1, 0, 200, 1, 1, 0, 3, 0})
	f.Add(uint8(2), uint8(0), []byte{
		2, 1, 1, 0, 2, 1, 2, 0, 2, 1, 66, 0, 2, 1, 3, 0, 2, 1, 2, 0, // window jump of 64
		2, 0, 9, 0, 2, 0, 8, 0, 2, 2, 9, 0, 2, 2, 9, 0, // latest-wins, both classes
	})
	f.Add(uint8(3), uint8(3), []byte{
		5, 1, 4, 0, 5, 1, 9, 0, 5, 1, 2, 0, // in-order prefix, shifted
		5, 1, 1, 0, 5, 1, 1, 0, 5, 1, 0, 0, 5, 0, 1, 0, 5, 0, 0, 0,
	})
	f.Add(uint8(0), uint8(255), []byte{0, 4, 7, 0, 0, 4, 7, 0})
	f.Fuzz(func(t *testing.T, nRaw, start uint8, ops []byte) {
		n := 1 + int(nRaw)%4
		model := newSeqModel()
		var dense *seqFilter
		prefixTop := map[seqStreamKey]uint32{}
		for i := 0; i+3 < len(ops); i += 4 {
			rcv := NodeID(int(ops[i]) % n)
			from := NodeID(int(ops[i]/16) % n)
			kind := MsgKind(1 + int(ops[i+1])%numMsgKinds)
			seq := uint32(ops[i+2]) | uint32(ops[i+3]%4)<<8
			k := seqStreamKey{kind, rcv, from}
			if dense == nil && i/4 >= int(start) {
				dense = newSeqFilter(n)
			}
			if seq != 0 {
				seq += prefixTop[k]
			}
			if dense == nil {
				if seq != 0 {
					prefixTop[k] = seq
				}
				if !model.fresh(rcv, from, kind, seq) {
					t.Fatalf("op %d: model rejected in-order frame %v %d←%d seq %d", i/4, kind, rcv, from, seq)
				}
				continue
			}
			want := model.fresh(rcv, from, kind, seq)
			if got := dense.fresh(rcv, from, kind, seq); got != want {
				t.Fatalf("op %d: %v %d←%d seq %d: dense fresh = %v, model = %v", i/4, kind, rcv, from, seq, got, want)
			}
		}
	})
}
