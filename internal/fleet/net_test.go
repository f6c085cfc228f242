package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refNetwork is the network's send path as it stood before it drew
// through kernel.FaultStream: Send and fault kept verbatim (renamed
// only), so the quickcheck below can hold the stream to it pick for
// pick, follow-up draw for follow-up draw and counter for counter.
type refNetwork struct {
	now  func() uint64
	plan NetFaultPlan
	rng  *rand.Rand

	queues map[int][]message
	next   int
	stats  NetFaultStats

	BaseLatencyCycles uint64
}

func newRefNetwork(now func() uint64, plan NetFaultPlan) *refNetwork {
	if plan.LatencyCycles == 0 {
		plan.LatencyCycles = DefaultNetLatencyCycles
	}
	return &refNetwork{
		now:               now,
		plan:              plan,
		rng:               rand.New(rand.NewSource(plan.Seed)),
		queues:            make(map[int][]message),
		BaseLatencyCycles: baseLatencyCycles,
	}
}

func (n *refNetwork) partitioned(from, to int, now uint64) bool {
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

func (n *refNetwork) fault(idx int) NetFaultKind {
	for _, pt := range n.plan.Script {
		if pt.Send == idx {
			return pt.Kind
		}
	}
	if n.plan.MaxFaults > 0 && n.stats.Injected >= uint64(n.plan.MaxFaults) {
		return NetNone
	}
	r := n.rng.Float64()
	for _, c := range []struct {
		p float64
		k NetFaultKind
	}{
		{n.plan.PDrop, NetDrop},
		{n.plan.PDup, NetDup},
		{n.plan.PReorder, NetReorder},
		{n.plan.PLatency, NetLatency},
	} {
		if r < c.p {
			return c.k
		}
		r -= c.p
	}
	return NetNone
}

func (n *refNetwork) enqueue(m message) {
	m.order = n.next
	n.next++
	n.queues[m.to] = append(n.queues[m.to], m)
	n.stats.Delivered++
}

func (n *refNetwork) Send(from, to int, payload []byte) {
	n.stats.Sends++
	now := n.now()
	if n.partitioned(from, to, now) {
		n.stats.PartitionDrops++
		return
	}
	kind := n.fault(int(n.stats.Sends - 1))
	base := message{from: from, to: to, payload: payload, deliverAt: now + n.BaseLatencyCycles}
	switch kind {
	case NetDrop:
		n.stats.Dropped++
		n.stats.Injected++
	case NetDup:
		n.stats.Duplicated++
		n.stats.Injected++
		n.enqueue(base)
		dup := base
		dup.deliverAt += 1 + uint64(n.rng.Int63n(int64(n.plan.LatencyCycles)))
		n.enqueue(dup)
	case NetReorder:
		n.stats.Reordered++
		n.stats.Injected++
		base.deliverAt += 1 + uint64(n.rng.Int63n(int64(n.plan.LatencyCycles)))
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

func randNetProb(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 0.3 * rng.Float64()
	}
}

// checkNetworkAgainstReference sends one random traffic pattern
// through the network and the reference side by side — random plans
// with repeated script indices, caps, zero and certain probabilities,
// partitions that swallow some sends — and compares the stats after
// every send and the queues at the end (the follow-up delay draws show
// in their delivery times).
func checkNetworkAgainstReference(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	plan := NetFaultPlan{
		Seed:  rng.Int63n(1000) - 500,
		PDrop: randNetProb(rng), PDup: randNetProb(rng),
		PReorder: randNetProb(rng), PLatency: randNetProb(rng),
	}
	if rng.Intn(2) == 0 {
		plan.LatencyCycles = uint64(1 + rng.Intn(50_000))
	}
	switch rng.Intn(3) {
	case 0:
		plan.MaxFaults = -1
	case 1:
		plan.MaxFaults = 1 + rng.Intn(6)
	}
	for i := rng.Intn(6); i > 0; i-- {
		plan.Script = append(plan.Script, NetFaultPoint{Send: rng.Intn(20) - 1, Kind: NetFaultKind(rng.Intn(int(NetLatency) + 1))})
	}
	for i := rng.Intn(3); i > 0; i-- {
		start := uint64(rng.Intn(200_000))
		plan.Partitions = append(plan.Partitions, Partition{
			Host: rng.Intn(4) - 1, Start: start, End: start + uint64(rng.Intn(80_000)),
		})
	}
	var clock uint64
	now := func() uint64 { return clock }
	got, want := NewNetwork(now, plan), newRefNetwork(now, plan)
	payload := []byte("delta")
	sends := 20 + rng.Intn(150)
	for i := 0; i < sends; i++ {
		clock += uint64(rng.Intn(4_000))
		from, to := 1+rng.Intn(3), -1-rng.Intn(2)
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		got.Send(from, to, payload)
		want.Send(from, to, payload)
		if got.stats != want.stats {
			return fmt.Errorf("send %d: stats %+v, reference %+v", i, got.stats, want.stats)
		}
	}
	// Nothing is delivered, so the queues hold every enqueued copy.
	if !reflect.DeepEqual(got.queues, want.queues) || got.next != want.next {
		return fmt.Errorf("queues differ from the reference's")
	}
	return nil
}

// TestNetworkMatchesReferenceQuick holds the network's stream-drawn
// send path to the reference copy above. `-args -quickchecks=N`
// widens it.
func TestNetworkMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkNetworkAgainstReference(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
