package routing

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/netsim"
)

// Sizes carries the routing message sizes in bits.
type Sizes struct {
	// Entry is the size of one routing table entry (the paper's
	// p_route); a proactive broadcast carries one entry per cluster
	// member.
	Entry float64
	// Discovery is the size of one RREQ/RREP discovery message.
	Discovery float64
	// Data is the size of one application payload.
	Data float64
}

// DefaultSizes are representative values: 16-byte table entries, 24-byte
// discovery packets, 64-byte data payloads.
var DefaultSizes = Sizes{Entry: 128, Discovery: 192, Data: 512}

// Validate checks that all sizes are positive.
func (s Sizes) Validate() error {
	if s.Entry <= 0 || s.Discovery <= 0 || s.Data <= 0 {
		return fmt.Errorf("routing: sizes must be positive, got %+v", s)
	}
	return nil
}

// Stats counts hybrid routing activity.
type Stats struct {
	// Rounds is the number of intra-cluster table broadcast rounds
	// (one per intra-cluster link change — the Eqn (13) events).
	Rounds float64
	// RouteMsgs is the number of ROUTE broadcasts those rounds emitted.
	RouteMsgs float64
	// Discoveries is the number of inter-cluster route discoveries
	// (RREQ floods).
	Discoveries float64
	// CacheHits counts sends that reused a live cached route.
	CacheHits float64
	// DataMsgs counts per-hop data transmissions.
	DataMsgs float64
	// DeliveryFailures counts sends that found no path.
	DeliveryFailures float64
}

// Delivery describes the outcome of one end-to-end send.
type Delivery struct {
	// Delivered reports whether a path existed and the payload arrived.
	Delivered bool
	// Path is the node sequence used (nil when undeliverable).
	Path []netsim.NodeID
	// Hops is len(Path)−1 for delivered payloads.
	Hops int
	// IntraCluster reports whether source and destination shared a
	// cluster (purely proactive forwarding, no discovery needed).
	IntraCluster bool
	// UsedDiscovery reports whether an RREQ flood was required (cache
	// miss or broken cached route).
	UsedDiscovery bool
}

// Hybrid is the hybrid routing protocol of §3.1: proactive distance-
// vector routing within each cluster (every intra-cluster link change
// triggers one table broadcast round through that cluster) and reactive,
// cache-based discovery between clusters over the cluster-head/gateway
// backbone.
//
// Register it after the cluster.Maintainer whose clustering it follows;
// it classifies each link event against the clustering as of the end of
// the previous tick (the state in which the event occurred), then lets
// the maintainer's updated assignment drive forwarding.
type Hybrid struct {
	cl    *cluster.Maintainer
	sizes Sizes

	env      netsim.Env
	prevHead []netsim.NodeID
	stats    Stats
	cache    map[[2]netsim.NodeID][]netsim.NodeID
}

var _ netsim.Protocol = (*Hybrid)(nil)

// NewHybrid builds the hybrid protocol on top of a cluster maintainer.
func NewHybrid(cl *cluster.Maintainer, sizes Sizes) (*Hybrid, error) {
	if cl == nil {
		return nil, fmt.Errorf("routing: nil cluster maintainer")
	}
	if err := sizes.Validate(); err != nil {
		return nil, err
	}
	return &Hybrid{cl: cl, sizes: sizes, cache: make(map[[2]netsim.NodeID][]netsim.NodeID)}, nil
}

// Name implements netsim.Protocol.
func (h *Hybrid) Name() string { return "routing/hybrid" }

// Start implements netsim.Protocol.
func (h *Hybrid) Start(env netsim.Env) error {
	h.env = env
	h.snapshotHeads()
	return nil
}

// snapshotHeads records the current affiliation of every node.
func (h *Hybrid) snapshotHeads() {
	n := h.env.NumNodes()
	if h.prevHead == nil {
		h.prevHead = make([]netsim.NodeID, n)
	}
	for i := 0; i < n; i++ {
		h.prevHead[i] = h.cl.HeadOf(netsim.NodeID(i))
	}
}

// OnLinkEvent implements netsim.Protocol: a route-changing intra-cluster
// link event triggers one proactive table round through the affected
// cluster — each member broadcasts its table of one entry per member
// (Eqns 13–14). In a one-hop cluster the routing structure is the star
// around the head (member → head → member), so routes change exactly
// when a member–head link breaks; member–member link changes are
// shortcuts the table never uses, and member–head generations are
// inter-cluster events (a node linked to its own head cannot gain that
// link again).
func (h *Hybrid) OnLinkEvent(ev netsim.LinkEvent) {
	if ev.Up {
		return
	}
	ca, cb := h.prevHead[ev.A], h.prevHead[ev.B]
	if ca != cb {
		return
	}
	// One endpoint must have been the cluster head.
	if ca != ev.A && ca != ev.B {
		return
	}
	var members []netsim.NodeID
	for i, head := range h.prevHead {
		if head == ca {
			members = append(members, netsim.NodeID(i))
		}
	}
	bits := h.sizes.Entry * float64(len(members))
	h.stats.Rounds++
	for _, m := range members {
		h.stats.RouteMsgs++
		h.env.Broadcast(netsim.Message{
			Kind:   netsim.MsgRoute,
			From:   m,
			Bits:   bits,
			Border: ev.Border,
		})
	}
}

// OnMessage implements netsim.Protocol.
func (h *Hybrid) OnMessage(netsim.NodeID, netsim.Message) {}

// OnTick implements netsim.Protocol: refresh the affiliation snapshot
// after the maintainer has settled this tick's changes.
func (h *Hybrid) OnTick(float64) {
	h.snapshotHeads()
}

// Stats returns a snapshot of the activity counters.
func (h *Hybrid) Stats() Stats { return h.stats }

// NextHopIntra returns the proactive next hop from src toward a
// destination in the same cluster, derived from the converged
// distance-vector state (forwarding stays inside the cluster). The
// second result is false when dst is in another cluster or unreachable
// within it.
func (h *Hybrid) NextHopIntra(src, dst netsim.NodeID) (netsim.NodeID, bool) {
	if h.cl.HeadOf(src) != h.cl.HeadOf(dst) {
		return 0, false
	}
	path := h.intraPath(src, dst)
	if len(path) < 2 {
		return 0, false
	}
	return path[1], true
}

// intraPath computes the converged intra-cluster route: shortest path
// using only nodes of the shared cluster.
func (h *Hybrid) intraPath(src, dst netsim.NodeID) []netsim.NodeID {
	head := h.cl.HeadOf(src)
	return shortestPath(h.env, src, dst, func(id netsim.NodeID) bool {
		return h.cl.HeadOf(id) == head
	})
}

// Send routes one data payload from src to dst, counting every
// transmission: intra-cluster payloads follow the proactive tables;
// inter-cluster payloads use the route cache, flooding one RREQ over the
// backbone (heads and gateways) on a miss and unicasting the RREP back.
func (h *Hybrid) Send(src, dst netsim.NodeID) Delivery {
	if src == dst {
		return Delivery{Delivered: true, Path: []netsim.NodeID{src}, IntraCluster: true}
	}
	if h.cl.HeadOf(src) == h.cl.HeadOf(dst) {
		path := h.intraPath(src, dst)
		if path == nil {
			// The cluster spans one hop around its head, so two
			// same-cluster nodes are at most two hops apart and always
			// connected through the head; a nil path can only mean the
			// topology changed mid-query.
			h.stats.DeliveryFailures++
			return Delivery{}
		}
		h.forwardData(path)
		return Delivery{Delivered: true, Path: path, Hops: len(path) - 1, IntraCluster: true}
	}

	key := [2]netsim.NodeID{src, dst}
	path, cached := h.cache[key]
	if cached && pathAlive(h.env, path) {
		h.stats.CacheHits++
		h.forwardData(path)
		return Delivery{Delivered: true, Path: path, Hops: len(path) - 1}
	}
	delete(h.cache, key)

	path = h.discover(src, dst)
	if path == nil {
		h.stats.DeliveryFailures++
		return Delivery{UsedDiscovery: true}
	}
	h.cache[key] = path
	h.forwardData(path)
	return Delivery{Delivered: true, Path: path, Hops: len(path) - 1, UsedDiscovery: true}
}

// discover floods one RREQ over the clustered backbone and returns the
// discovered route. Flood cost: the source plus every head and every
// gateway (a member with a neighbor affiliated elsewhere) broadcasts the
// RREQ once — the clustered-flooding economy that motivates hierarchical
// routing. The destination unicasts an RREP back along the reverse path.
func (h *Hybrid) discover(src, dst netsim.NodeID) []netsim.NodeID {
	h.stats.Discoveries++
	n := h.env.NumNodes()
	for i := 0; i < n; i++ {
		id := netsim.NodeID(i)
		if id != src && id != dst && !h.onBackbone(id) {
			continue
		}
		h.env.Broadcast(netsim.Message{
			Kind: netsim.MsgRouteDiscovery,
			From: id,
			Bits: h.sizes.Discovery,
		})
	}
	// The flood reaches dst along backbone paths; the returned route is
	// the shortest such path (what the first-arriving RREQ establishes).
	path := shortestPath(h.env, src, dst, h.onBackbone)
	if path == nil {
		// Fall back to any path: sparse regions may lack backbone
		// connectivity even when the flat graph is connected.
		path = shortestPath(h.env, src, dst, nil)
	}
	if path == nil {
		return nil
	}
	// RREP: one unicast per hop back from dst to src.
	for i := len(path) - 1; i > 0; i-- {
		h.env.Broadcast(netsim.Message{
			Kind: netsim.MsgRouteDiscovery,
			From: path[i],
			Bits: h.sizes.Discovery,
		})
	}
	return path
}

// onBackbone reports whether a node forwards inter-cluster floods: every
// cluster-head, and every member that bridges to a foreign cluster.
func (h *Hybrid) onBackbone(id netsim.NodeID) bool {
	if h.cl.RoleOf(id) == cluster.RoleHead {
		return true
	}
	own := h.cl.HeadOf(id)
	for _, nb := range h.env.Neighbors(id) {
		if h.cl.HeadOf(nb) != own {
			return true
		}
	}
	return false
}

// forwardData counts one data transmission per hop of the path.
func (h *Hybrid) forwardData(path []netsim.NodeID) {
	for i := 0; i+1 < len(path); i++ {
		h.stats.DataMsgs++
		h.env.Broadcast(netsim.Message{
			Kind: netsim.MsgData,
			From: path[i],
			Bits: h.sizes.Data,
		})
	}
}
