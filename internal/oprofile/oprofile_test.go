package oprofile

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
)

func newMachine(seed int64) *kernel.Machine {
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	return kernel.NewMachine(core, seed)
}

func TestSampleKeyOf(t *testing.T) {
	file := Sample{Event: hpc.GlobalPowerEvents, Image: "libc.so", Offset: 0x100, Proc: "app"}
	k := KeyOf(file)
	if k.Image != "libc.so" || k.Off != 0x100 || k.JIT {
		t.Errorf("file key = %+v", k)
	}
	anon := Sample{Event: hpc.GlobalPowerEvents, PC: 0x6000_1000,
		AnonStart: 0x6000_0000, AnonEnd: 0x6800_0000, Proc: "jikesrvm"}
	k = KeyOf(anon)
	if !strings.Contains(k.Image, "anon (range:") || !strings.Contains(k.Image, "jikesrvm") {
		t.Errorf("anon image = %q", k.Image)
	}
	if k.Off != anon.PC {
		t.Error("anon key must carry the absolute PC")
	}
	jit := Sample{Event: hpc.BSQCacheReference, PC: 0x6100_0000, JIT: true, Epoch: 3, Proc: "jikesrvm"}
	k = KeyOf(jit)
	if k.Image != JITImageName || k.Epoch != 3 || !k.JIT || k.Off != jit.PC {
		t.Errorf("jit key = %+v", k)
	}
}

func TestCountsRoundTrip(t *testing.T) {
	counts := map[Key]uint64{
		{Event: hpc.GlobalPowerEvents, Image: "vmlinux", Proc: "", Off: 0x40}:                                   7,
		{Event: hpc.BSQCacheReference, Image: "anon (range:0x1-0x2),jvm", Proc: "jvm", Off: 0x9}:                3,
		{Event: hpc.GlobalPowerEvents, Image: JITImageName, Proc: "jvm", JIT: true, Epoch: 5, Off: 0x6000_0040}: 11,
	}
	var order []Key
	for k := range counts {
		order = append(order, k)
	}
	var buf bytes.Buffer
	if err := WriteCounts(&buf, counts, order); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCounts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(counts) {
		t.Fatalf("round trip: %d keys, want %d", len(got), len(counts))
	}
	for k, v := range counts {
		if got[k] != v {
			t.Errorf("key %+v: count %d, want %d", k, got[k], v)
		}
	}
}

func TestReadCountsSumsDuplicates(t *testing.T) {
	line := "0\t0\t0\t64\t5\tapp\tlibc.so\n"
	got, err := ReadCounts(strings.NewReader(line + line))
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Event: hpc.GlobalPowerEvents, Image: "libc.so", Proc: "app", Off: 64}
	if got[k] != 10 {
		t.Errorf("duplicate lines not summed: %d", got[k])
	}
}

func TestReadCountsErrors(t *testing.T) {
	if _, err := ReadCounts(strings.NewReader("garbage line\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := ReadCounts(strings.NewReader("x\t0\t0\t1\t1\tp\timg\n")); err == nil {
		t.Error("non-numeric event accepted")
	}
}

// Property: WriteCounts/ReadCounts round-trips arbitrary key content,
// including image names with spaces, commas and parens.
func TestCountsRoundTripQuick(t *testing.T) {
	f := func(off uint32, cnt uint16, epoch uint8, jit bool) bool {
		k := Key{
			Event: hpc.BSQCacheReference,
			Image: "anon (range:0x1-0x2),weird proc name",
			Proc:  "weird proc name",
			JIT:   jit,
			Epoch: int(epoch),
			Off:   addr.Address(off),
		}
		counts := map[Key]uint64{k: uint64(cnt) + 1}
		var buf bytes.Buffer
		if err := WriteCounts(&buf, counts, []Key{k}); err != nil {
			return false
		}
		got, err := ReadCounts(&buf)
		if err != nil {
			return false
		}
		return got[k] == uint64(cnt)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// busyExec burns ops at a fixed user PC, optionally touching memory.
func busyExec(pc addr.Address, total int) kernel.Executor {
	done := 0
	return kernel.ExecFunc(func(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
		for done < total && !m.Core.Expired() {
			m.Core.Exec(cpu.Op{PC: pc, Cost: 1})
			done++
		}
		if done >= total {
			return kernel.StepExit
		}
		return kernel.StepYield
	})
}

func TestDriverAttributesSamples(t *testing.T) {
	m := newMachine(1)
	p, _ := m.Kern.NewProcess("app", busyExec(0, 0))
	b := image.NewBuilder("app.bin")
	mainOff := b.Add("main", 4096)
	img, _ := b.Image()
	base, err := m.Kern.LoadImage(p, img, false)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the executor to run at main's address.
	// (NewProcess took a placeholder; recreate properly.)
	m2 := newMachine(1)
	p2, _ := m2.Kern.NewProcess("app", busyExec(base+mainOff+16, 500_000))
	if _, err := m2.Kern.LoadImage(p2, img, false); err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(m2, []EventConfig{{hpc.GlobalPowerEvents, 10_000}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Kern.Run(0); err != nil {
		t.Fatal(err)
	}
	if drv.Stats().NMIs == 0 || drv.BufferLen() == 0 {
		t.Fatalf("no samples: %+v", drv.Stats())
	}
	samples := drv.Drain(0)
	var inMain int
	for _, s := range samples {
		if s.Image == "app.bin" {
			sym, ok := img.Resolve(s.Offset)
			if !ok || sym.Name != "main" {
				t.Errorf("app sample at offset %s resolves to %q", s.Offset, sym.Name)
			}
			inMain++
		}
		if s.Kernel && s.Image == "" {
			t.Error("kernel sample with no image")
		}
	}
	if inMain == 0 {
		t.Error("no samples attributed to app.bin main")
	}
	// Note: with a single constant-cost counter the NMI handler can
	// never contain an overflow boundary (periods are spaced a full
	// period apart and each boundary immediately precedes the handler),
	// so the driver's own kernel samples require a second event or a
	// daemon; see TestTwoCountersSampleHandler.
}

// With two counters at different periods, the second counter's
// overflows land inside the first's handler: the profiler observes its
// own cost, as on real hardware.
func TestTwoCountersSampleHandler(t *testing.T) {
	m := newMachine(1)
	m.Kern.NewProcess("app", kernel.ExecFunc(func(mm *kernel.Machine, pp *kernel.Process) kernel.StepResult {
		for !mm.Core.Expired() {
			// Memory ops generate L2 misses for the second counter.
			mm.Core.Exec(cpu.Op{PC: kernel.UserBase, Cost: 1,
				Mem: addr.Address(0x7000_0000 + (mm.Core.Cycles()*97)%(1<<22))})
		}
		return kernel.StepYield
	}))
	drv, err := NewDriver(m, []EventConfig{
		{hpc.GlobalPowerEvents, 20_000},
		{hpc.BSQCacheReference, MinPeriod},
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Kern.Run(10_000_000)
	kern := 0
	for _, s := range drv.Drain(0) {
		if s.Kernel {
			kern++
		}
	}
	if kern == 0 {
		t.Errorf("no kernel samples with two counters: %+v", drv.Stats())
	}
}

func TestDriverAnonymousAndJITPaths(t *testing.T) {
	// Executor running inside an anonymous exec mapping.
	m := newMachine(1)
	var anonBase addr.Address
	p, _ := m.Kern.NewProcess("jikesrvm", kernel.ExecFunc(func(mm *kernel.Machine, pp *kernel.Process) kernel.StepResult {
		for !mm.Core.Expired() {
			mm.Core.Exec(cpu.Op{PC: anonBase + 0x100, Cost: 1})
		}
		return kernel.StepYield
	}))
	var err error
	anonBase, err = m.Kern.MapAnon(p, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}

	// Plain driver: anonymous.
	drv, err := NewDriver(m, []EventConfig{{hpc.GlobalPowerEvents, 5_000}}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(20_000_000); err == nil {
		t.Fatal("expected cycle-limit stop for endless workload")
	}
	st := drv.Stats()
	if st.AnonSamples == 0 || st.JITSamples != 0 {
		t.Fatalf("plain driver stats: %+v", st)
	}
	for _, s := range drv.Drain(0) {
		if s.Image == "" && !s.JIT {
			if s.AnonStart != anonBase {
				t.Errorf("anon range start %s, want %s", s.AnonStart, anonBase)
			}
			break
		}
	}
}

type fakeRegistry struct {
	lo, hi addr.Address
	pid    int
	epoch  int
	stack  []addr.Address
}

func (f *fakeRegistry) Check(pid int, pc addr.Address) (bool, int) {
	if pid == f.pid && pc >= f.lo && pc < f.hi {
		return true, f.epoch
	}
	return false, 0
}
func (f *fakeRegistry) Stack(pid int, max int) []addr.Address { return f.stack }
func (f *fakeRegistry) Epoch(pid int) int                     { return f.epoch }

func TestDriverJITRegistry(t *testing.T) {
	m := newMachine(1)
	var anonBase addr.Address
	p, _ := m.Kern.NewProcess("jikesrvm", kernel.ExecFunc(func(mm *kernel.Machine, pp *kernel.Process) kernel.StepResult {
		for !mm.Core.Expired() {
			mm.Core.Exec(cpu.Op{PC: anonBase + 0x100, Cost: 1})
		}
		return kernel.StepYield
	}))
	var err error
	anonBase, err = m.Kern.MapAnon(p, 1<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{lo: anonBase, hi: anonBase + 1<<20, pid: p.PID, epoch: 7,
		stack: []addr.Address{anonBase + 0x500}}
	drv, err := NewDriver(m, []EventConfig{{hpc.GlobalPowerEvents, 5_000}}, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	drv.CallGraphDepth = 4
	m.Kern.Run(20_000_000)
	st := drv.Stats()
	if st.JITSamples == 0 {
		t.Fatalf("registry never matched: %+v", st)
	}
	found := false
	for _, s := range drv.Drain(0) {
		if s.JIT {
			found = true
			if s.Epoch != 7 {
				t.Errorf("JIT sample epoch %d, want 7", s.Epoch)
			}
		}
	}
	if !found {
		t.Error("no JIT samples in buffer")
	}
	if len(drv.DrainStacks()) == 0 {
		t.Error("call-graph records missing")
	}
}

func TestDriverBufferOverflowDrops(t *testing.T) {
	m := newMachine(1)
	m.Kern.NewProcess("app", busyExec(kernel.UserBase, 2_000_000))
	drv, err := NewDriver(m, []EventConfig{{hpc.GlobalPowerEvents, MinPeriod}}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(0); err != nil {
		t.Fatal(err)
	}
	st := drv.Stats()
	if st.Dropped == 0 {
		t.Errorf("tiny buffer never dropped: %+v", st)
	}
	if drv.BufferLen() > 8 {
		t.Errorf("buffer exceeded capacity: %d", drv.BufferLen())
	}
}

func TestDaemonDrainsAndFlushes(t *testing.T) {
	m := newMachine(1)
	m.Kern.NewProcess("app", busyExec(kernel.UserBase, 3_000_000))
	prof, err := Start(m, Config{
		Events: []EventConfig{{hpc.GlobalPowerEvents, 9_000}},
		Daemon: DaemonConfig{WakeCycles: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(0); err != nil {
		t.Fatal(err)
	}
	prof.Shutdown(m)
	if prof.Daemon.SamplesLogged() == 0 {
		t.Fatal("daemon logged nothing")
	}
	if prof.Driver.BufferLen() != 0 {
		t.Error("samples left in buffer after shutdown")
	}
	if !m.Kern.Disk().Exists(SampleFile) {
		t.Fatal("no sample file on disk")
	}
	// Disk contents must agree with the daemon's in-memory aggregate.
	data, _ := m.Kern.Disk().Read(SampleFile)
	fromDisk, err := ReadCounts(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	mem := prof.Daemon.Counts()
	if len(fromDisk) != len(mem) {
		t.Fatalf("disk has %d keys, memory %d", len(fromDisk), len(mem))
	}
	for k, v := range mem {
		if fromDisk[k] != v {
			t.Errorf("key %+v: disk %d, mem %d", k, fromDisk[k], v)
		}
	}
}

func TestOpreportEndToEnd(t *testing.T) {
	m := newMachine(1)
	b := image.NewBuilder("app.bin")
	mainOff := b.Add("main", 4096)
	img, _ := b.Image()
	var base addr.Address
	remaining := 3_000_000
	p, _ := m.Kern.NewProcess("app", kernel.ExecFunc(func(mm *kernel.Machine, pp *kernel.Process) kernel.StepResult {
		for remaining > 0 && !mm.Core.Expired() {
			// Stay inside main's 4 KiB symbol: wrap every 1000 ops.
			mm.Core.ExecBatch(base+mainOff, 1000, 4, 1)
			remaining -= 1000
		}
		if remaining <= 0 {
			return kernel.StepExit
		}
		return kernel.StepYield
	}))
	var err error
	base, err = m.Kern.LoadImage(p, img, false)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Start(m, Config{Events: []EventConfig{{hpc.GlobalPowerEvents, 9_000}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(0); err != nil {
		t.Fatal(err)
	}
	prof.Shutdown(m)

	images := map[string]*image.Image{
		"app.bin": img,
		"vmlinux": m.Kern.Vmlinux(),
	}
	if mod, ok := m.Kern.Module(ModuleName); ok {
		images[ModuleName] = mod.Image
	}
	rep, err := Opreport(m.Kern.Disk(), images, []hpc.Event{hpc.GlobalPowerEvents})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || rep.Totals[hpc.GlobalPowerEvents] == 0 {
		t.Fatal("empty report")
	}
	mainRow, ok := rep.Find("main")
	if !ok {
		t.Fatal("main not in report")
	}
	if pct := rep.Percent(mainRow, hpc.GlobalPowerEvents); pct < 50 {
		t.Errorf("main only %.1f%% of a main-only workload", pct)
	}
	// The report must be sorted descending by the primary event.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].Counts[hpc.GlobalPowerEvents] > rep.Rows[i-1].Counts[hpc.GlobalPowerEvents] {
			t.Fatal("rows not sorted")
		}
	}
	var buf bytes.Buffer
	if err := Format(&buf, rep, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Time %") || !strings.Contains(out, "main") {
		t.Errorf("formatted report:\n%s", out)
	}
}

func TestELFResolver(t *testing.T) {
	b := image.NewBuilder("lib.so")
	off := b.Add("fn", 100)
	img, _ := b.Image()
	r := &ELFResolver{Images: map[string]*image.Image{"lib.so": img}}

	if im, sym := r.Resolve(Key{Image: "lib.so", Off: off + 10}); im != "lib.so" || sym != "fn" {
		t.Errorf("resolve = %s %s", im, sym)
	}
	if _, sym := r.Resolve(Key{Image: "lib.so", Off: 0x7FFF}); sym != NoSymbols {
		t.Errorf("gap resolve = %s", sym)
	}
	if _, sym := r.Resolve(Key{Image: "stripped.bin", Off: 0}); sym != NoSymbols {
		t.Errorf("missing image resolve = %s", sym)
	}
	if im, sym := r.Resolve(Key{Image: JITImageName, JIT: true, Off: 0x6000_0000}); im != JITImageName || sym != NoSymbols {
		t.Errorf("jit resolve by baseline = %s %s", im, sym)
	}
}

func TestStartErrors(t *testing.T) {
	m := newMachine(1)
	if _, err := Start(m, Config{}); err == nil {
		t.Error("Start with no events accepted")
	}
	if _, err := Start(m, Config{Events: []EventConfig{{hpc.GlobalPowerEvents, 0}}}); err == nil {
		t.Error("zero period accepted")
	}
	m2 := newMachine(1)
	if _, err := Start(m2, Config{Events: []EventConfig{{hpc.GlobalPowerEvents, MinPeriod - 1}}}); err == nil {
		t.Error("sub-minimum period accepted (NMI storm risk)")
	}
}
