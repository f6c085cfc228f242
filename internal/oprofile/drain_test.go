package oprofile

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/record"
)

// newDrainRig builds an n-core machine with a driver and a daemon whose
// shards the tests fill by hand and drain from the test's own context,
// as FinalFlush does. The driver is disarmed, so the daemon's own
// simulated work adds no samples.
func newDrainRig(t testing.TB, n int) (*kernel.Machine, *Driver, *Daemon) {
	t.Helper()
	hs := cache.SharedHierarchies(n)
	cores := make([]*cpu.Core, n)
	for i := range cores {
		cores[i] = cpu.New(hpc.NewBank(), hs[i])
	}
	m := kernel.NewMachineN(1, cores...)
	drv, err := NewDriver(m, []EventConfig{{hpc.GlobalPowerEvents, MinPeriod}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := StartDaemon(m, drv, DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	drv.Disarm()
	return m, drv, d
}

// drainSample draws a sample for cpu from a small key space, so keys
// repeat across drains and CPUs.
func drainSample(rng *rand.Rand, ci int) Sample {
	s := Sample{Event: hpc.Event(rng.Intn(2)), Proc: fmt.Sprintf("p%d", rng.Intn(3)), CPU: ci}
	switch rng.Intn(3) {
	case 0:
		s.JIT, s.Epoch, s.PC = true, rng.Intn(3), addr.Address(0x6000_0000+8*rng.Intn(6))
	case 1:
		s.Image, s.Offset = "libx.so", addr.Address(8*rng.Intn(6))
	default:
		s.PC = addr.Address(0x7000_0000 + 8*rng.Intn(6))
		s.AnonStart, s.AnonEnd = 0x7000_0000, 0x7100_0000
	}
	return s
}

// refKeyLess orders keys by every field, written apart from the
// daemon's comparator.
func refKeyLess(a, b Key) bool {
	x := fmt.Sprintf("%03d|%s|%08d|%016x|%03d|%s|%t", a.Event, a.Image, a.Epoch, uint64(a.Off), a.CPU, a.Proc, a.JIT)
	y := fmt.Sprintf("%03d|%s|%08d|%016x|%03d|%s|%t", b.Event, b.Image, b.Epoch, uint64(b.Off), b.CPU, b.Proc, b.JIT)
	return x < y
}

// refFlushBytes is what one successful flush of delta must append: a
// framed record per CPU in ascending CPU order, keys in refKeyLess
// order.
func refFlushBytes(t *testing.T, delta map[Key]uint64) []byte {
	t.Helper()
	byCPU := make(map[int][]Key)
	var cpus []int
	for k := range delta {
		if byCPU[k.CPU] == nil {
			cpus = append(cpus, k.CPU)
		}
		byCPU[k.CPU] = append(byCPU[k.CPU], k)
	}
	sort.Ints(cpus)
	var out []byte
	for _, ci := range cpus {
		keys := byCPU[ci]
		sort.Slice(keys, func(i, j int) bool { return refKeyLess(keys[i], keys[j]) })
		out = append(out, record.Frame(AppendCounts(nil, delta, keys))...)
	}
	return out
}

// TestDaemonDrainStateAcrossDrains runs a 4-core daemon through drains
// in which each shard goes empty, full and empty again — a stale
// drain buffer would be folded twice. After every drain the per-CPU
// sample tallies and the sample file's bytes must equal a fold of
// exactly the samples drained so far.
func TestDaemonDrainStateAcrossDrains(t *testing.T) {
	const ncpu = 4
	m, drv, d := newDrainRig(t, ncpu)
	rng := rand.New(rand.NewSource(3))
	pending := make([][]Sample, ncpu)
	wantCPU := make([]uint64, ncpu)
	var wantDisk []byte
	rounds := [][ncpu]int{
		{0, 40, 0, 7}, {25, 0, 0, 0}, {0, 0, 0, 0}, {30, 30, 30, 30},
		{0, 60, 0, 0}, {1, 0, 1, 0}, {0, 0, 50, 0}, {0, 0, 0, 0}, {9, 9, 0, 9},
	}
	for r, fill := range rounds {
		for ci, n := range fill {
			for i := 0; i < n; i++ {
				s := drainSample(rng, ci)
				drv.bufs[ci] = append(drv.bufs[ci], s)
				pending[ci] = append(pending[ci], s)
			}
		}
		d.processBatch(m)
		delta := make(map[Key]uint64)
		for ci := range pending {
			for _, s := range pending[ci] {
				delta[KeyOf(s)]++
			}
			wantCPU[ci] += uint64(len(pending[ci]))
			pending[ci] = pending[ci][:0]
			if drv.ShardLen(ci) != 0 {
				t.Fatalf("round %d cpu %d: %d samples left in the shard", r, ci, drv.ShardLen(ci))
			}
		}
		wantDisk = append(wantDisk, refFlushBytes(t, delta)...)

		gotCPU := d.SamplesLoggedCPU()
		for ci := range wantCPU {
			var n uint64
			if ci < len(gotCPU) {
				n = gotCPU[ci]
			}
			if n != wantCPU[ci] {
				t.Fatalf("round %d: cpu %d logged %d samples, drained %d", r, ci, n, wantCPU[ci])
			}
		}
		disk, err := m.Kern.Disk().Read(SampleFile)
		if len(wantDisk) == 0 {
			err = nil
		}
		if err != nil || !bytes.Equal(disk, wantDisk) {
			t.Fatalf("round %d: sample file differs from the drained samples' flush (err %v):\n%q\nwant:\n%q", r, err, disk, wantDisk)
		}
		if d.Unflushed() != 0 {
			t.Fatalf("round %d: %d samples left unflushed", r, d.Unflushed())
		}
	}
}

// TestDaemonFlushKeyOrderTotal: keys that differ only in Proc or JIT
// flush to the same bytes whatever order the dirty map was filled in.
func TestDaemonFlushKeyOrderTotal(t *testing.T) {
	var keys []Key
	for _, proc := range []string{"a", "b", "c", "d"} {
		for _, jit := range []bool{false, true} {
			keys = append(keys, Key{Event: hpc.GlobalPowerEvents, Image: JITImageName, Proc: proc, JIT: jit, Epoch: 2, Off: 0x40, CPU: 1})
		}
	}
	counts := make(map[Key]uint64)
	for i, k := range keys {
		counts[k] = uint64(1 + i%3)
	}
	rng := rand.New(rand.NewSource(9))
	var want []byte
	for trial := 0; trial < 40; trial++ {
		m, _, d := newDrainRig(t, 2)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			d.dirty[k] = counts[k]
		}
		d.flush(m)
		got, err := m.Kern.Disk().Read(SampleFile)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: flushed bytes depend on map order:\n%q\nfirst:\n%q", trial, got, want)
		}
	}
}

// TestCompareKeysTotal: compareKeys is 0 only for equal keys and
// agrees with the field-by-field reference order.
func TestCompareKeysTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key := func() Key {
		return Key{Event: hpc.Event(rng.Intn(2)), Image: []string{"a", "b"}[rng.Intn(2)],
			Proc: []string{"p", "q"}[rng.Intn(2)], JIT: rng.Intn(2) == 0, Epoch: rng.Intn(2),
			CPU: rng.Intn(2), Off: addr.Address(rng.Intn(2))}
	}
	for i := 0; i < 5000; i++ {
		a, b := key(), key()
		c := compareKeys(a, b)
		if (c == 0) != (a == b) {
			t.Fatalf("compareKeys(%+v, %+v) = %d", a, b, c)
		}
		if (c < 0) != refKeyLess(a, b) {
			t.Fatalf("compareKeys(%+v, %+v) = %d, reference less = %v", a, b, c, refKeyLess(a, b))
		}
	}
}

// warmCycleAllocs fills every shard of an ncpu-core rig with keys
// samples per CPU, runs the drain → aggregate → flush cycle until its
// buffers are warm, and returns the allocations of one more cycle.
func warmCycleAllocs(t *testing.T, ncpu, keys int) float64 {
	m, drv, d := newDrainRig(t, ncpu)
	batch := make([][]Sample, ncpu)
	for ci := range batch {
		for i := 0; i < keys; i++ {
			batch[ci] = append(batch[ci], Sample{Event: hpc.GlobalPowerEvents, Proc: "app",
				Image: "libx.so", Offset: addr.Address(8 * i), CPU: ci})
		}
	}
	cycle := func() {
		for ci := range batch {
			drv.bufs[ci] = append(drv.bufs[ci][:0], batch[ci]...)
		}
		d.processBatch(m)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	return testing.AllocsPerRun(20, cycle)
}

// TestDaemonWarmCycleAllocs pins a warm drain → aggregate → flush
// cycle: the per-CPU drain buffers and flush's order, groups and
// payload are kept, so what allocates is the record each CPU's group
// is written as (record.Frame's copy) plus the sample file's growth —
// a constant per flushed CPU, whatever the number of keys.
func TestDaemonWarmCycleAllocs(t *testing.T) {
	const perGroup = 1
	for _, cell := range []struct{ ncpu, keys int }{{1, 8}, {1, 400}, {4, 8}, {4, 400}} {
		n := warmCycleAllocs(t, cell.ncpu, cell.keys)
		t.Logf("%d CPU(s), %d keys each: %v allocations per cycle", cell.ncpu, cell.keys, n)
		if limit := float64(perGroup*cell.ncpu + 1); n > limit {
			t.Errorf("%d CPU(s), %d keys each: warm cycle allocated %v times, want at most %v",
				cell.ncpu, cell.keys, n, limit)
		}
	}
}

// CheckConservation accepts a pipeline that accounts for every sample,
// with samples still buffered on both CPUs, and names the first stage
// that loses or invents one: a CPU's driver, a CPU's daemon share, or
// an aggregate the per-CPU counters do not sum to.
func TestCheckConservation(t *testing.T) {
	balanced := func() (*Profiler, *Driver) {
		m, drv, d := newDrainRig(t, 2)
		rng := rand.New(rand.NewSource(1))
		log := func(ci int, n uint64) {
			for i := uint64(0); i < n; i++ {
				drv.bufs[ci] = append(drv.bufs[ci], drainSample(rng, ci))
			}
			drv.percpu[ci].NMIs += n
			drv.percpu[ci].Logged += n
			drv.stats.NMIs += n
			drv.stats.Logged += n
		}
		for ci := range 2 {
			log(ci, 2)
			drv.percpu[ci].NMIs++
			drv.percpu[ci].Dropped++
			drv.stats.NMIs++
			drv.stats.Dropped++
		}
		d.processBatch(m)
		// Samples logged after the drain stay buffered.
		log(0, 3)
		log(1, 1)
		return &Profiler{Driver: drv, Daemon: d}, drv
	}
	if p, drv := balanced(); p.CheckConservation() != nil || drv.BufferLen() == 0 {
		t.Fatalf("balanced pipeline with %d buffered samples: %v", drv.BufferLen(), p.CheckConservation())
	}
	for _, tc := range []struct {
		want  string
		upset func(p *Profiler)
	}{
		{"cpu1 driver unbalanced", func(p *Profiler) { p.Driver.percpu[1].Dropped++ }},
		{"cpu0 daemon unbalanced", func(p *Profiler) { p.Driver.bufs[0] = p.Driver.bufs[0][1:] }},
		{"do not sum to the aggregate", func(p *Profiler) { p.Driver.stats.NMIs++ }},
		{"samples the daemon logged", func(p *Profiler) { p.Daemon.samplesLogged++ }},
	} {
		p, _ := balanced()
		tc.upset(p)
		if err := p.CheckConservation(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckConservation = %v, want an error containing %q", err, tc.want)
		}
	}
}
