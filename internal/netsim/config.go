package netsim

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mobility"
)

// Config describes one simulation scenario.
type Config struct {
	// N is the number of nodes.
	N int
	// Side is the border length a of the square region.
	Side float64
	// Range is the node transmission range r.
	Range float64
	// Metric selects square (border effects, the paper's choice) or
	// torus (no border effects, CV-exact) distance semantics.
	// Defaults to MetricSquare.
	Metric geom.MetricKind
	// Model is the mobility model. Defaults to Static.
	Model mobility.Model
	// Dt is the tick length. It should be small enough that nodes move a
	// small fraction of Range per tick. It has no default: choosing it is
	// the caller's job, and it must be positive and finite.
	Dt float64
	// Seed roots all randomness of the run.
	Seed uint64
	// Medium optionally injects faults (per-delivery loss, node churn)
	// into the engine. nil selects the ideal medium the paper's
	// lower-bound analysis assumes; the ideal path is byte-identical and
	// allocation-identical to a build without fault support.
	Medium Medium
	// PendingLimit bounds the number of in-flight delayed deliveries each
	// receiving node may hold when the Medium delays traffic; beyond it
	// the node's oldest parked delivery is evicted (drop-oldest) and
	// counted in Tallies.Overflow. Zero selects DefaultPendingLimit;
	// negative values are rejected. Irrelevant without a delaying Medium.
	PendingLimit int
	// Tiles shards the per-tick topology rebuild into that many
	// contiguous node-ID ranges stepped concurrently on a shared worker
	// pool. 0 and 1 both select the serial path. The output is
	// byte-identical for every value: each tile writes only its own rows
	// (disjoint CSR segments), and the merge order is fixed by node ID,
	// not by goroutine scheduling.
	Tiles int
	// Stop is an optional cooperative cancellation check, consulted once
	// at the top of every Step before any state advances. When it
	// returns true, Step (and therefore Run) fails with ErrStopped and
	// the simulation halts on a tick boundary with all counters
	// consistent. The check must be cheap and allocation-free — it runs
	// on the hot path; a closure over context.Context.Err is the
	// intended shape. nil keeps the engine byte-for-byte and
	// allocation-for-allocation identical to a build without
	// cancellation support.
	Stop func() bool
}

// withDefaults returns the config with defaults applied.
func (c Config) withDefaults() Config {
	if c.Metric == 0 {
		c.Metric = geom.MetricSquare
	}
	if c.Model == nil {
		c.Model = mobility.Static{}
	}
	return c
}

// Validate checks the scenario parameters. NaN and ±Inf are rejected
// explicitly: NaN compares false against every bound, so a sign check
// alone would wave it through and the failure would surface later as a
// panic deep inside the spatial grid.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("netsim: need at least one node, got %d", c.N)
	}
	if !isFinite(c.Side) || c.Side <= 0 {
		return fmt.Errorf("netsim: side must be positive and finite, got %g", c.Side)
	}
	if !isFinite(c.Range) || c.Range <= 0 {
		return fmt.Errorf("netsim: range must be positive and finite, got %g", c.Range)
	}
	if !isFinite(c.Dt) || c.Dt <= 0 {
		return fmt.Errorf("netsim: dt must be positive and finite, got %g", c.Dt)
	}
	if c.PendingLimit < 0 {
		return fmt.Errorf("netsim: pending limit must be non-negative, got %d", c.PendingLimit)
	}
	if c.Tiles < 0 {
		return fmt.Errorf("netsim: tiles must be non-negative, got %d", c.Tiles)
	}
	return nil
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Tally accumulates message counts and bits for one message class.
type Tally struct {
	// Msgs is the number of broadcasts.
	Msgs float64
	// Bits is the total size of those broadcasts.
	Bits float64
}

// Sub returns t − o, used to measure a window between two snapshots.
func (t Tally) Sub(o Tally) Tally {
	return Tally{Msgs: t.Msgs - o.Msgs, Bits: t.Bits - o.Bits}
}

// Add returns t + o.
func (t Tally) Add(o Tally) Tally {
	return Tally{Msgs: t.Msgs + o.Msgs, Bits: t.Bits + o.Bits}
}

// Tallies is a snapshot of all engine counters.
type Tallies struct {
	// ByKind holds one tally per message kind including border-flagged
	// traffic.
	byKind [numMsgKinds]Tally
	// byKindBorder holds the border-flagged portion only.
	byKindBorder [numMsgKinds]Tally

	// LinkGen and LinkBrk count non-border link events.
	LinkGen, LinkBrk float64
	// BorderGen and BorderBrk count border (teleport) link events.
	BorderGen, BorderBrk float64
	// Invalid counts dropped broadcasts (bad sender or kind) — always
	// zero unless a protocol has a bug.
	Invalid float64
	// Delivered counts successful point deliveries (message × receiving
	// neighbor), Stale ones included; Dropped counts point deliveries the
	// fault medium lost. Without a Medium, Dropped is always zero.
	Delivered, Dropped float64
	// Suppressed counts broadcasts from crashed nodes: a dead radio
	// transmits nothing, so the message is neither tallied as traffic
	// nor delivered. Always zero without churn.
	Suppressed float64
	// Overflow counts delayed deliveries evicted by the bounded
	// per-receiver pending queue's drop-oldest policy. Always zero unless
	// the medium delays traffic faster than receivers drain it.
	Overflow float64
	// Duplicated counts the extra frame copies the medium injected
	// (counted when duplicated, whether or not the copy later survives
	// eviction or a dead receiver). Always zero without duplication.
	Duplicated float64
	// Stale counts delivered frames the engine's sequence check withheld
	// from the protocols: duplicates, and frames overtaken by a newer one
	// of a latest-wins class or fallen behind the CLUSTER window. They
	// are also in Delivered. Always zero unless the medium delays or
	// duplicates sequenced frames.
	Stale float64
}

// Of returns the tally of a message kind, including border-flagged
// messages.
func (t Tallies) Of(kind MsgKind) Tally {
	return t.byKind[int(kind)-1]
}

// Record tallies one accepted broadcast of the given kind, mirroring what
// Sim.Broadcast does internally. It exists so an independent engine (the
// refsim differential oracle) can keep a Tallies snapshot that is
// comparable field-for-field with the optimized engine's. Unknown kinds
// are ignored and reported as false; callers count them in Invalid.
func (t *Tallies) Record(kind MsgKind, bits float64, border bool) bool {
	idx := int(kind) - 1
	if idx < 0 || idx >= numMsgKinds {
		return false
	}
	t.byKind[idx].Msgs++
	t.byKind[idx].Bits += bits
	if border {
		t.byKindBorder[idx].Msgs++
		t.byKindBorder[idx].Bits += bits
	}
	return true
}

// BorderOf returns the border-flagged portion of a kind's tally.
func (t Tallies) BorderOf(kind MsgKind) Tally {
	return t.byKindBorder[int(kind)-1]
}

// NonBorderOf returns the tally excluding border-flagged messages — the
// quantity the paper's analysis models.
func (t Tallies) NonBorderOf(kind MsgKind) Tally {
	return t.Of(kind).Sub(t.BorderOf(kind))
}

// Sub returns the window t − o, field by field.
func (t Tallies) Sub(o Tallies) Tallies {
	out := t
	for i := range out.byKind {
		out.byKind[i] = t.byKind[i].Sub(o.byKind[i])
		out.byKindBorder[i] = t.byKindBorder[i].Sub(o.byKindBorder[i])
	}
	out.LinkGen -= o.LinkGen
	out.LinkBrk -= o.LinkBrk
	out.BorderGen -= o.BorderGen
	out.BorderBrk -= o.BorderBrk
	out.Invalid -= o.Invalid
	out.Delivered -= o.Delivered
	out.Dropped -= o.Dropped
	out.Suppressed -= o.Suppressed
	out.Overflow -= o.Overflow
	out.Duplicated -= o.Duplicated
	out.Stale -= o.Stale
	return out
}

// DropRate returns Dropped / (Delivered + Dropped), the fraction of
// settled point deliveries that were lost (0 when there were none).
// Frames the pending queue evicts on overflow (Overflow) count in
// neither term, so the ratio equals the medium's loss probability only
// while nothing overflows. Under a delaying medium whose receivers
// overflow, evictions shrink Delivered but not Dropped and the ratio
// rises above it: N=100 runs at loss 0.05 and delay 1 read about 0.3.
func (t Tallies) DropRate() float64 {
	attempts := t.Delivered + t.Dropped
	if attempts == 0 {
		return 0
	}
	return t.Dropped / attempts
}
