// Package netsim is a deterministic discrete-time simulator for mobile ad
// hoc networks with an ideal one-hop broadcast medium. It plays the role
// GloMoSim and the authors' custom simulator play in the paper: it moves
// nodes under a mobility model, detects link generation/break events, and
// lets protocol implementations (neighbor discovery, clustering, routing)
// react by broadcasting messages that are tallied per message class.
//
// The medium is ideal by default — zero delay, no loss, no contention —
// matching the paper's lower-bound regime in which every cluster and
// route change is detected. Config.Medium optionally departs from that
// regime with deterministic fault injection (per-delivery loss, node
// crash/recover churn); see the Medium interface and package faults.
// Determinism: given one seed, every run is bit-for-bit reproducible; all
// iteration orders are fixed.
//
// Border semantics: with the square metric, a node that wraps across the
// region border teleports to the opposite side, which breaks and re-forms
// its whole neighborhood at once. These events stand in for the
// plane-crossing flux of the BCV window but are not part of the
// range-crossing dynamics Claim 2 models, so the engine tags them (and
// protocols tag the messages they trigger) as Border; measurements can
// then include or exclude them.
package netsim

import "fmt"

// NodeID identifies a node; IDs are dense indices 0..N-1 and double as
// the unique node identifiers that ID-based clustering algorithms (such
// as Lowest-ID) compare.
type NodeID int32

// MsgKind classifies control and data messages for tallying.
type MsgKind int

const (
	// MsgHello is a neighbor discovery beacon.
	MsgHello MsgKind = iota + 1
	// MsgCluster is a cluster maintenance message.
	MsgCluster
	// MsgRoute is a routing table update broadcast.
	MsgRoute
	// MsgRouteDiscovery is a reactive inter-cluster discovery message
	// (route request / reply).
	MsgRouteDiscovery
	// MsgData is an application payload.
	MsgData

	numMsgKinds = int(MsgData)
)

// KindValid reports whether k is one of the engine's message kinds —
// the same acceptance test Sim.Broadcast applies before tallying.
func KindValid(k MsgKind) bool {
	idx := int(k) - 1
	return idx >= 0 && idx < numMsgKinds
}

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgCluster:
		return "cluster"
	case MsgRoute:
		return "route"
	case MsgRouteDiscovery:
		return "route-discovery"
	case MsgData:
		return "data"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Message is a one-hop broadcast emitted by a protocol. The engine
// delivers it to every current neighbor of From within the same tick.
type Message struct {
	// Kind classifies the message for tallying and dispatch.
	Kind MsgKind
	// From is the transmitting node.
	From NodeID
	// Bits is the message size used for overhead accounting.
	Bits float64
	// Border marks messages causally triggered by a border (teleport)
	// event; the flag must be propagated by protocols that rebroadcast
	// in reaction to a Border message.
	Border bool
	// Seq is a per-sender, per-class sequence number stamped by hardened
	// protocols (0 = unsequenced). Once the medium delays or duplicates a
	// sequenced frame, the engine checks it on every delivery and
	// withholds stale and duplicated frames from OnMessage (counted in
	// Tallies.Stale): latest-wins for MsgHello and MsgRoute, an
	// anti-replay window for MsgCluster. A protocol that stamps a class
	// must number it from 1 upward in broadcast order, one counter per
	// sender.
	Seq uint32
	// Payload carries protocol-specific content.
	Payload any
}

// LinkEvent reports one topology change detected between two consecutive
// ticks.
type LinkEvent struct {
	// A and B are the link endpoints, A < B.
	A, B NodeID
	// Up is true for link generation, false for link break.
	Up bool
	// Border is true when either endpoint wrapped across the region
	// border this tick, i.e. the change is a teleport artifact rather
	// than range-crossing motion.
	Border bool
	// Time is the simulation time at which the event was detected.
	Time float64
}

// Protocol is a simulated protocol layer. One Protocol instance manages
// the state of all N nodes (the usual whole-network simulator style);
// registration order defines processing order within a tick, so layered
// protocols (clustering before routing) register in dependency order.
type Protocol interface {
	// Name identifies the protocol in diagnostics.
	Name() string
	// Start is invoked once, after initial placement and topology
	// computation but before the first tick. Protocols typically build
	// their initial state here (e.g. cluster formation).
	Start(env Env) error
	// OnLinkEvent is invoked for every topology change, in deterministic
	// order, before message delivery of the tick.
	OnLinkEvent(ev LinkEvent)
	// OnMessage is invoked when node rcv receives a broadcast. Protocols
	// must filter on msg.Kind and may Broadcast in response (delivered
	// within the same tick). The engine's sequence check runs first, so
	// stale and duplicated sequenced frames never arrive here (see
	// Message.Seq).
	OnMessage(rcv NodeID, msg Message)
	// OnTick is invoked once per tick after link events and the message
	// exchange they triggered.
	OnTick(now float64)
}

// Env is the engine surface protocols program against.
type Env interface {
	// Now returns the current simulation time.
	Now() float64
	// NumNodes returns N.
	NumNodes() int
	// Neighbors returns the current neighbor list of id, sorted
	// ascending. The returned slice is owned by the engine and must not
	// be mutated or retained across ticks.
	Neighbors(id NodeID) []NodeID
	// IsNeighbor reports whether a and b currently share a link.
	IsNeighbor(a, b NodeID) bool
	// Degree returns the current neighbor count of id.
	Degree(id NodeID) int
	// Broadcast queues msg for delivery to every current neighbor of
	// msg.From during this tick and tallies it.
	Broadcast(msg Message)
}
