package oprofile

import (
	"fmt"

	"viprof/internal/addr"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
)

// ModuleName is the kernel module's image name.
const ModuleName = "oprofile.ko"

// EventConfig arms one hardware counter.
type EventConfig struct {
	Event  hpc.Event
	Period uint64 // "the prescribed number of hardware events" per sample (§3)
}

// MinPeriod is the smallest accepted sampling period. Like the real
// opcontrol's per-event minimum counts, it prevents configuring a
// period shorter than the NMI service cost, which would put the system
// into a permanent NMI storm.
const MinPeriod = 5_000

// Registry is the VIProf runtime-profiler extension point: it lets the
// sampling path ask whether a PC belongs to a VM-registered JIT region,
// and with which execution epoch. Plain OProfile runs with a nil
// Registry and logs such samples as anonymous.
type Registry interface {
	// Check reports whether pc lies in a registered JIT region of the
	// process, and the region's current epoch.
	Check(pid int, pc addr.Address) (jit bool, epoch int)
	// Stack returns up to max caller PCs of the process's current call
	// chain for call-graph sampling (nil if unsupported).
	Stack(pid int, max int) []addr.Address
	// Epoch returns the process's current execution epoch (0 if the
	// process has no registered VM).
	Epoch(pid int) int
}

// DriverStats counts sampling activity.
type DriverStats struct {
	NMIs        uint64
	Logged      uint64
	Dropped     uint64 // buffer-full drops
	AnonSamples uint64
	JITSamples  uint64
	KernSamples uint64
}

// Driver is the kernel side of the profiler: it arms the counters,
// services overflow NMIs, attributes the interrupted PC to a memory
// region, and queues samples for the daemon.
type Driver struct {
	m      *kernel.Machine
	module *kernel.LoadedModule
	reg    Registry

	// bufs holds one sample ring per CPU (the real driver keeps per-CPU
	// buffers so the NMI path never contends). capacity bounds each
	// shard; a 1-core machine behaves exactly like the pre-SMP single
	// buffer. wmLatched and percpu are indexed the same way.
	bufs      [][]Sample
	drained   [][]Sample // DrainShards' per-CPU result, refilled each drain
	capacity  int
	wmLatched []bool // watermark fired; reset when a drain brings the shard below half
	stats     DriverStats
	percpu    []DriverStats

	// CallGraphDepth, when > 0, records up to that many caller PCs per
	// sample (VIProf's cross-layer call-graph extension).
	CallGraphDepth int
	stacks         []StackSample

	// handlerOps is the simulated cost of servicing one NMI. On the
	// paper's Pentium 4 an NMI round trip plus region lookup costs a
	// few thousand cycles; that cost is what makes fast sampling slow
	// the system down (Figure 2).
	handlerOps int
	// anonOps is the extra bookkeeping on the anonymous-memory path
	// (the code VIProf's mapping check replaces — the paper credits
	// its occasional speedups over OProfile to skipping this, §4.3).
	anonOps int
	// jitOps is the cost of the VIProf region check + epoch tag.
	jitOps int

	// OnWatermark, if set, is invoked when the buffer crosses half
	// capacity (the driver kicks the daemon awake, as the real module
	// does via its event buffer wait queue).
	OnWatermark func()
}

// StackSample is one call-graph record: the sampled PC plus its caller
// chain, innermost first.
type StackSample struct {
	Event   hpc.Event
	PID     int
	PC      addr.Address
	Callers []addr.Address
	Epoch   int
	Kernel  bool
}

// buildModule constructs the oprofile.ko image.
func buildModule() (*image.Image, error) {
	b := image.NewBuilder(ModuleName)
	for _, s := range []struct {
		name string
		size uint64
	}{
		{"op_nmi_handler", 600},
		{"op_do_sample", 900},
		{"op_lookup_vma", 700},
		{"op_anon_bookkeep", 500},
		{"op_jit_check", 400},
		{"op_buffer_add", 400},
		{"op_read_buffer", 600},
	} {
		b.Add(s.name, s.size)
	}
	return b.Image()
}

// NewDriver loads the oprofile kernel module, arms the counters, and
// installs the NMI handler. reg may be nil (plain OProfile).
func NewDriver(m *kernel.Machine, events []EventConfig, bufCap int, reg Registry) (*Driver, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("oprofile: no events configured")
	}
	if bufCap <= 0 {
		bufCap = 65536
	}
	img, err := buildModule()
	if err != nil {
		return nil, err
	}
	lm, err := m.Kern.LoadModule(img)
	if err != nil {
		return nil, err
	}
	ncpu := len(m.Cores)
	if ncpu == 0 {
		ncpu = 1
	}
	d := &Driver{
		m:          m,
		module:     lm,
		reg:        reg,
		bufs:       make([][]Sample, ncpu),
		drained:    make([][]Sample, ncpu),
		capacity:   bufCap,
		wmLatched:  make([]bool, ncpu),
		percpu:     make([]DriverStats, ncpu),
		handlerOps: 2700,
		anonOps:    1300,
		jitOps:     200,
	}
	for _, ec := range events {
		if ec.Period < MinPeriod {
			return nil, fmt.Errorf("oprofile: period %d for %s below minimum %d",
				ec.Period, ec.Event, MinPeriod)
		}
		// Every core has its own counter bank; arm them all so overflow
		// NMIs fire on whichever core the work lands on.
		for _, c := range d.cores() {
			if _, err := c.Bank.Program(ec.Event, ec.Period); err != nil {
				return nil, fmt.Errorf("oprofile: arming %s: %v", ec.Event, err)
			}
		}
	}
	m.Kern.SetNMIHandler(d.handleNMI)
	return d, nil
}

// cores returns the machine's core set (boot core only for machines
// built before the SMP field existed).
func (d *Driver) cores() []*cpu.Core {
	if len(d.m.Cores) > 0 {
		return d.m.Cores
	}
	return []*cpu.Core{d.m.Core}
}

// NumCPU returns the number of per-CPU sample shards.
func (d *Driver) NumCPU() int { return len(d.bufs) }

// Stats returns a copy of the driver's aggregate counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// StatsCPU returns a copy of one CPU shard's counters. The per-CPU
// stats sum exactly to Stats() — the conservation checks assert both.
func (d *Driver) StatsCPU(ci int) DriverStats {
	if ci < 0 || ci >= len(d.percpu) {
		return DriverStats{}
	}
	return d.percpu[ci]
}

// BufferLen returns the number of samples waiting for the daemon
// across all shards.
func (d *Driver) BufferLen() int {
	n := 0
	for _, b := range d.bufs {
		n += len(b)
	}
	return n
}

// ShardLen returns the number of buffered samples in one CPU shard.
func (d *Driver) ShardLen(ci int) int {
	if ci < 0 || ci >= len(d.bufs) {
		return 0
	}
	return len(d.bufs[ci])
}

// handleNMI is the overflow service routine. It runs in NMI context:
// every op it executes is itself profiled work (the simulated cost is
// endogenous).
func (d *Driver) handleNMI(m *kernel.Machine, s cpu.Snapshot, ev hpc.Event) {
	ci := s.CPU
	if ci < 0 || ci >= len(d.bufs) {
		ci = 0
	}
	st := &d.percpu[ci]
	d.stats.NMIs++
	st.NMIs++
	k := m.Kern
	k.ExecKernel("op_nmi_handler", d.handlerOps/3, 1)

	sample := Sample{Event: ev, PID: s.Ctx.PID, Kernel: s.Ctx.Kernel, PC: s.PC, CPU: ci}
	if p, ok := k.Process(s.Ctx.PID); ok {
		sample.Proc = p.Name
	}

	// Attribute the PC to a region, as the real driver does with the
	// interrupted task's mm.
	k.ExecKernel("op_lookup_vma", d.handlerOps/3, 1)
	switch {
	case s.PC.IsKernel():
		if v, ok := k.KernelLookup(s.PC); ok {
			sample.Image = v.Image
			sample.Offset = v.ImageOffset(s.PC)
		}
		d.stats.KernSamples++
		st.KernSamples++
	default:
		var vma addr.VMA
		var mapped bool
		if p, ok := k.Process(s.Ctx.PID); ok {
			vma, mapped = p.Space.Lookup(s.PC)
		}
		switch {
		case mapped && !vma.Anonymous():
			sample.Image = vma.Image
			sample.Offset = vma.ImageOffset(s.PC)
		case mapped:
			// Anonymous memory. The VIProf extension consults the VM
			// registration before the expensive anon bookkeeping path.
			if d.reg != nil {
				k.ExecKernel("op_jit_check", d.jitOps, 1)
				if jit, epoch := d.reg.Check(s.Ctx.PID, s.PC); jit {
					sample.JIT = true
					sample.Epoch = epoch
					d.stats.JITSamples++
					st.JITSamples++
					break
				}
			}
			k.ExecKernel("op_anon_bookkeep", d.anonOps, 1)
			sample.AnonStart, sample.AnonEnd = vma.Start, vma.End
			d.stats.AnonSamples++
			st.AnonSamples++
		default:
			// PC in unmapped memory (e.g. between regions): attribute
			// to the process as a zero-length anon range.
			sample.AnonStart, sample.AnonEnd = s.PC, s.PC
			d.stats.AnonSamples++
			st.AnonSamples++
		}
	}

	k.ExecKernel("op_buffer_add", d.handlerOps/3, 1)
	if len(d.bufs[ci]) >= d.capacity {
		d.stats.Dropped++
		st.Dropped++
		return
	}
	d.bufs[ci] = append(d.bufs[ci], sample)
	d.stats.Logged++
	st.Logged++
	// Level-triggered with a latch: `== capacity/2` would never fire for
	// capacity < 2 and is skipped whenever a partial drain leaves the
	// buffer above half. The latch keeps one crossing from waking the
	// daemon on every subsequent sample; Drain re-arms it. Each CPU
	// shard latches independently.
	if d.OnWatermark != nil && !d.wmLatched[ci] && len(d.bufs[ci]) >= (d.capacity+1)/2 {
		d.wmLatched[ci] = true
		d.OnWatermark()
	}

	if d.CallGraphDepth > 0 && d.reg != nil && !s.Ctx.Kernel {
		if callers := d.reg.Stack(s.Ctx.PID, d.CallGraphDepth); len(callers) > 0 {
			// Caller frames may be JIT code even when the leaf is not,
			// so every stack record carries the VM's current epoch.
			epoch := sample.Epoch
			if !sample.JIT {
				epoch = d.reg.Epoch(s.Ctx.PID)
			}
			d.stacks = append(d.stacks, StackSample{
				Event: ev, PID: s.Ctx.PID, PC: s.PC, Callers: callers,
				Epoch: epoch, Kernel: s.Ctx.Kernel,
			})
		}
	}
}

// Drain hands at most max buffered samples to the daemon and removes
// them from the buffers, walking shards in CPU order (FIFO within a
// shard). On a 1-core machine this is exactly the pre-SMP FIFO drain.
func (d *Driver) Drain(max int) []Sample {
	total := d.BufferLen()
	if max <= 0 || max > total {
		max = total
	}
	out := make([]Sample, 0, max)
	for ci := range d.bufs {
		if len(out) == max {
			break
		}
		take := max - len(out)
		if take > len(d.bufs[ci]) {
			take = len(d.bufs[ci])
		}
		out = append(out, d.bufs[ci][:take]...)
		d.shrinkShard(ci, take)
	}
	return out
}

// DrainShards removes and returns up to maxPerShard samples from every
// CPU shard (FIFO within each). The result is indexed by CPU id; empty
// shards yield empty slices. This is the entry point the daemon's
// concurrent drain uses — each returned shard can be aggregated by a
// separate goroutine because each CPU has its own backing array. The
// driver keeps those arrays and refills them on every call, so the
// result is valid only until the next DrainShards.
func (d *Driver) DrainShards(maxPerShard int) [][]Sample {
	for ci := range d.bufs {
		take := len(d.bufs[ci])
		if maxPerShard > 0 && take > maxPerShard {
			take = maxPerShard
		}
		d.drained[ci] = append(d.drained[ci][:0], d.bufs[ci][:take]...)
		d.shrinkShard(ci, take)
	}
	return d.drained
}

// shrinkShard drops the first take samples from a shard and re-arms
// its watermark latch if the drain brought it below half capacity.
func (d *Driver) shrinkShard(ci, take int) {
	if take == 0 {
		return
	}
	n := copy(d.bufs[ci], d.bufs[ci][take:])
	d.bufs[ci] = d.bufs[ci][:n]
	if len(d.bufs[ci]) < (d.capacity+1)/2 {
		d.wmLatched[ci] = false
	}
}

// DrainStacks removes and returns all buffered call-graph records.
func (d *Driver) DrainStacks() []StackSample {
	out := d.stacks
	d.stacks = nil
	return out
}

// Disarm stops sampling (counters removed on every core, NMI handler
// detached).
func (d *Driver) Disarm() {
	for _, c := range d.cores() {
		for ev := hpc.Event(0); int(ev) < hpc.NumEvents; ev++ {
			c.Bank.Remove(ev)
		}
	}
	d.m.Kern.SetNMIHandler(nil)
}
