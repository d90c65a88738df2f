package routing

import (
	"repro/internal/cluster"
	"repro/internal/netsim"
)

// RouteViolations audits the routing-layer convergence condition: for
// every ordered pair of live, same-cluster nodes that are connected
// through their cluster's live subgraph, the distributed distance-vector
// tables must hold a usable route — next-hop chaining from src must
// reach dst without exceeding InfMetric hops (loop-free by
// construction), and every hop must be a live node on a currently-up
// link. Pairs whose cluster is itself split (no path through live
// members) are exempt: no protocol can route across a physical cut, so
// the audit only demands routes the topology actually supports. alive
// follows the engine convention: nil means every node is up.
//
// It marks every live node that owes at least one route it cannot serve
// in the caller-provided scratch slice (len ≥ NumNodes) and returns the
// number of violating nodes. Convergence auditors use the per-node set
// to distinguish persistent damage from the transient table churn that
// continuous loss and delayed delivery produce even in steady state.
func RouteViolations(env netsim.Env, cl *cluster.Maintainer, dv *IntraDV, alive func(netsim.NodeID) bool, bad []bool) int {
	live := func(id netsim.NodeID) bool { return alive == nil || alive(id) }
	n := env.NumNodes()
	count := 0
	for i := 0; i < n; i++ {
		bad[i] = false
		src := netsim.NodeID(i)
		if !live(src) {
			continue
		}
		head := cl.HeadOf(src)
		if head < 0 {
			continue
		}
		keep := func(id netsim.NodeID) bool { return live(id) && cl.HeadOf(id) == head }
		for j := 0; j < n; j++ {
			dst := netsim.NodeID(j)
			if dst == src || !live(dst) || cl.HeadOf(dst) != head {
				continue
			}
			if shortestPath(env, src, dst, keep) == nil {
				continue // cluster physically split: no route owed
			}
			if !routeUsable(env, dv, live, src, dst) {
				bad[i] = true
				count++
				break // one violation per source is enough
			}
		}
	}
	return count
}

// routeUsable checks one owed route end to end.
func routeUsable(env netsim.Env, dv *IntraDV, live func(netsim.NodeID) bool, src, dst netsim.NodeID) bool {
	path, ok := dv.Route(src, dst)
	if !ok {
		return false
	}
	for k := 0; k+1 < len(path); k++ {
		if !live(path[k+1]) || !env.IsNeighbor(path[k], path[k+1]) {
			return false
		}
	}
	return true
}
