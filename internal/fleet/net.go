// Package fleet turns the single-host profiler into a fleet system: N
// simulated hosts ship framed sample deltas (the DESIGN §10/§13 record
// format is the wire format) over a deterministic, faulty network to a
// collector process that ingests them through a write-ahead journal
// with seq-burned idempotent replay. The package's contract is the
// repo-wide robustness story extended across the network: degrade
// loudly, never lose or double-count a sample silently, and keep the
// fleet-level conservation equality (sum of per-host holds == collector
// aggregate) checkable under composed network + disk chaos.
//
// Determinism: the network decides each send through a
// kernel.FaultStream, the seeded draw every disk injector makes too,
// so a fixed (seed, plan, workload) reproduces the identical delivery
// schedule run after run.
// Simulated time comes from the machine clock (core cycles) — never
// the wall clock.
package fleet

import (
	"sort"

	"viprof/internal/kernel"
)

// NetFaultKind selects a failure mode for one message send.
type NetFaultKind int

// Failure modes.
const (
	// NetNone delivers the message after the base latency.
	NetNone NetFaultKind = iota
	// NetDrop loses the message: it never arrives and no error is
	// reported to the sender (the UDP model — loss surfaces only as a
	// missing ack).
	NetDrop
	// NetDup delivers the message twice, the copy after an extra delay;
	// the receiver's idempotent replay must absorb it.
	NetDup
	// NetReorder delays the message past later traffic, so it arrives
	// out of order; the receiver must be order-insensitive.
	NetReorder
	// NetLatency delays the message by the plan's LatencyCycles without
	// losing it (a congested link, not a lossy one).
	NetLatency
)

// String names the fault kind.
func (k NetFaultKind) String() string {
	switch k {
	case NetDrop:
		return "drop"
	case NetDup:
		return "dup"
	case NetReorder:
		return "reorder"
	case NetLatency:
		return "latency"
	default:
		return "none"
	}
}

// NetFaultPoint scripts an exact fault: the Nth send (0 based) suffers
// Kind regardless of the probabilistic schedule.
type NetFaultPoint struct {
	Send int
	Kind NetFaultKind
}

// Partition is a network partition window in machine cycles: sends to
// or from Host (endpoint id; PartitionAll = every host) vanish while
// Start <= now < End. Windows heal by construction when the clock
// passes End.
type Partition struct {
	Host       int
	Start, End uint64
}

// PartitionAll partitions every endpoint.
const PartitionAll = -1

// NetFaultPlan is a deterministic network fault schedule, modeled on
// kernel.FaultPlan: per-send probabilities, a scripted override list,
// and a private seeded stream that draws once per send outside a
// partition.
type NetFaultPlan struct {
	// Seed drives the plan's private RNG.
	Seed int64

	// Per-send probabilities, evaluated in this order; their sum should
	// stay <= 1.
	PDrop, PDup, PReorder, PLatency float64

	// LatencyCycles is the extra delay a NetLatency fault adds, and the
	// bound on the delay NetDup and NetReorder use. Senders size their
	// ack timeouts above it, so latency alone never forces a spill
	// (keeping destructive <=> degraded crisp: only drops and
	// partitions destroy). Default DefaultNetLatencyCycles.
	LatencyCycles uint64

	// MaxFaults caps probabilistic injections (0 = unlimited); scripted
	// points and partitions always apply.
	MaxFaults int
	// Script forces exact faults at exact send indices.
	Script []NetFaultPoint

	// Partitions are cycle windows during which affected sends vanish.
	Partitions []Partition
}

// DefaultNetLatencyCycles is the default fault-latency bound (~12 ms at
// the simulated 3.4 MHz clock).
const DefaultNetLatencyCycles = 40_000

// NetFaultStats counts network injector activity.
type NetFaultStats struct {
	// Sends is every message offered; Delivered counts copies enqueued
	// for delivery (a duplicated send contributes two).
	Sends, Delivered uint64
	// Per-kind injection counts.
	Dropped, Duplicated, Reordered, Latencies uint64
	// PartitionDrops counts sends that vanished inside a partition
	// window (not charged against MaxFaults — a partition is a state,
	// not a per-message coin flip).
	PartitionDrops uint64
	// Injected is the probabilistic/scripted faults delivered.
	Injected uint64
}

// Destructive reports how many injected network events can strand data:
// drops and partition rejections. Duplicates and reorders are absorbed
// by the collector's idempotent replay and latency is bounded below the
// ack timeout, so none of them can lose or double-count a sample.
func (s NetFaultStats) Destructive() uint64 {
	return s.Dropped + s.PartitionDrops
}

// message is one in-flight datagram.
type message struct {
	from, to  int
	payload   []byte
	deliverAt uint64
	order     int // enqueue tiebreak for deterministic delivery order
}

// Network is the simulated transport: a deliver-at-cycle queue per
// endpoint with a seeded fault plan between Send and Deliver. Endpoint
// 0 is the collector by convention; hosts are 1..N.
type Network struct {
	now    func() uint64 // the machine clock (core cycles)
	plan   NetFaultPlan
	stream kernel.FaultStream

	queues map[int][]message
	next   int // global enqueue counter (delivery tiebreak)
	stats  NetFaultStats
}

// baseLatencyCycles is the fault-free one-way latency (~0.6 ms).
const baseLatencyCycles = 2_000

// NewNetwork builds a network over the given simulated clock with the
// given fault plan.
func NewNetwork(now func() uint64, plan NetFaultPlan) *Network {
	if plan.LatencyCycles == 0 {
		plan.LatencyCycles = DefaultNetLatencyCycles
	}
	script := make([]kernel.StreamPoint, len(plan.Script))
	for i, pt := range plan.Script {
		script[i] = kernel.StreamPoint{At: pt.Send, Kind: int(pt.Kind)}
	}
	return &Network{
		now:  now,
		plan: plan,
		stream: kernel.NewFaultStream(plan.Seed, plan.MaxFaults, int(NetDrop),
			[]float64{plan.PDrop, plan.PDup, plan.PReorder, plan.PLatency}, script),
		queues: make(map[int][]message),
	}
}

// Stats returns the injector counters so far.
func (n *Network) Stats() NetFaultStats { return n.stats }

// MaxDelayCycles bounds the worst-case fault-free-or-faulted delivery
// delay of a single copy: base latency plus one latency/reorder/dup
// penalty. Senders derive ack timeouts from it.
func (n *Network) MaxDelayCycles() uint64 {
	return baseLatencyCycles + n.plan.LatencyCycles
}

// partitioned reports whether a send between from and to is inside an
// active partition window.
func (n *Network) partitioned(from, to int, now uint64) bool {
	for _, p := range n.plan.Partitions {
		if now < p.Start || now >= p.End {
			continue
		}
		if p.Host == PartitionAll || p.Host == from || p.Host == to {
			return true
		}
	}
	return false
}

func (n *Network) enqueue(m message) {
	m.order = n.next
	n.next++
	n.queues[m.to] = append(n.queues[m.to], m)
	n.stats.Delivered++
}

// Send offers one datagram. It never blocks and never reports failure:
// loss is the receiver's (and the retry protocol's) problem, as on a
// real datagram network.
func (n *Network) Send(from, to int, payload []byte) {
	n.stats.Sends++
	now := n.now()
	if n.partitioned(from, to, now) {
		// The send keeps its index in the stream but draws nothing.
		n.stream.Skip()
		n.stats.PartitionDrops++
		return
	}
	kind := NetFaultKind(n.stream.Next(n.stats.Injected))
	base := message{from: from, to: to, payload: payload, deliverAt: now + baseLatencyCycles}
	switch kind {
	case NetDrop:
		n.stats.Dropped++
		n.stats.Injected++
	case NetDup:
		n.stats.Duplicated++
		n.stats.Injected++
		n.enqueue(base)
		dup := base
		dup.deliverAt += 1 + uint64(n.stream.Int63n(int64(n.plan.LatencyCycles)))
		n.enqueue(dup)
	case NetReorder:
		n.stats.Reordered++
		n.stats.Injected++
		base.deliverAt += 1 + uint64(n.stream.Int63n(int64(n.plan.LatencyCycles)))
		n.enqueue(base)
	case NetLatency:
		n.stats.Latencies++
		n.stats.Injected++
		base.deliverAt += n.plan.LatencyCycles
		n.enqueue(base)
	default:
		n.enqueue(base)
	}
}

// Deliver pops every message for the endpoint whose delivery time has
// arrived, in (deliverAt, enqueue-order) order — deterministic, and
// genuinely out of order when a reorder fault delayed an earlier send
// past a later one.
func (n *Network) Deliver(to int) [][]byte {
	now := n.now()
	q := n.queues[to]
	if len(q) == 0 {
		return nil
	}
	var due, rest []message
	for _, m := range q {
		if m.deliverAt <= now {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	if len(due) == 0 {
		return nil
	}
	n.queues[to] = rest
	sort.Slice(due, func(i, j int) bool {
		if due[i].deliverAt != due[j].deliverAt {
			return due[i].deliverAt < due[j].deliverAt
		}
		return due[i].order < due[j].order
	})
	out := make([][]byte, len(due))
	for i, m := range due {
		out[i] = m.payload
	}
	return out
}

// Flush discards every queued message for the endpoint and returns how
// many were dropped. The collector's supervisor calls it on restart:
// datagrams addressed to a dead process are dead letters, counted
// loudly, never silently replayed into the replacement.
func (n *Network) Flush(to int) int {
	dropped := len(n.queues[to])
	delete(n.queues, to)
	return dropped
}

// Pending reports how many messages are queued for the endpoint
// (delivered or not yet due).
func (n *Network) Pending(to int) int { return len(n.queues[to]) }
