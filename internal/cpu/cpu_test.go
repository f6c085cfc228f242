package cpu

import (
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/hpc"
)

func TestSeconds(t *testing.T) {
	if s := Seconds(ClockHz); s != 1.0 {
		t.Errorf("Seconds(ClockHz) = %v, want 1", s)
	}
	if s := Seconds(ClockHz / 2); s != 0.5 {
		t.Errorf("half = %v", s)
	}
}

func TestExecAdvancesClock(t *testing.T) {
	c := New(nil, nil)
	c.Exec(Op{PC: 0x1000, Cost: 3})
	c.Exec(Op{PC: 0x1004, Cost: 2})
	if c.Cycles() != 5 {
		t.Errorf("cycles = %d, want 5", c.Cycles())
	}
	if c.Instructions() != 2 {
		t.Errorf("instrs = %d, want 2", c.Instructions())
	}
	if c.PC() != 0x1004 {
		t.Errorf("pc = %s", c.PC())
	}
	c.AdvanceIdle(100)
	if c.Cycles() != 105 {
		t.Errorf("idle advance: cycles = %d", c.Cycles())
	}
}

func TestMemoryOpsTickCacheAndMissCounter(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.BSQCacheReference, 1) // overflow on every miss
	c := New(bank, cache.DefaultHierarchy())
	var misses int
	c.SetNMIHandler(func(_ *Core, s Snapshot, ev hpc.Event) {
		if ev == hpc.BSQCacheReference {
			misses++
		}
	})
	a := addr.Address(0x8000)
	c.Exec(Op{PC: 0x1000, Cost: 1, Mem: a}) // cold: L2 miss
	c.Exec(Op{PC: 0x1004, Cost: 1, Mem: a}) // warm: hit
	if misses != 1 {
		t.Errorf("L2 misses = %d, want 1", misses)
	}
	// The miss penalty must have been charged.
	if c.Cycles() <= 2 {
		t.Errorf("cycles = %d, memory penalty not charged", c.Cycles())
	}
}

func TestNMIDeliversInterruptedSnapshot(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 10)
	c := New(bank, nil)
	var snaps []Snapshot
	c.SetNMIHandler(func(_ *Core, s Snapshot, ev hpc.Event) {
		snaps = append(snaps, s)
	})
	c.SetContext(Context{PID: 7})
	for i := 0; i < 10; i++ {
		c.Exec(Op{PC: addr.Address(0x2000 + i*4), Cost: 1})
	}
	if len(snaps) != 1 {
		t.Fatalf("NMIs = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.PC != 0x2024 || s.Ctx.PID != 7 || s.Ctx.Kernel {
		t.Errorf("snapshot = %+v", s)
	}
}

// An NMI handler that itself executes ops can trigger a nested overflow;
// it must be latched and delivered after the handler returns, not
// recursively.
func TestNestedNMILatched(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 10)
	c := New(bank, nil)
	depth, maxDepth, count := 0, 0, 0
	c.SetNMIHandler(func(core *Core, s Snapshot, ev hpc.Event) {
		depth++
		if depth > maxDepth {
			maxDepth = depth
		}
		count++
		if count == 1 {
			// Handler burns 25 cycles -> 2 more overflows while in NMI.
			core.ExecBatch(addr.KernelBase+0x100, 25, 4, 1)
		}
		depth--
	})
	for i := 0; i < 10; i++ {
		c.Exec(Op{PC: addr.Address(0x3000 + i*4), Cost: 1})
	}
	if maxDepth != 1 {
		t.Errorf("NMI handler reentered: max depth %d", maxDepth)
	}
	if count < 3 {
		t.Errorf("latched NMIs lost: handled %d", count)
	}
}

// Handler ops are charged to the core: the profiled workload slows down.
func TestHandlerCostIsEndogenous(t *testing.T) {
	run := func(period uint64, handlerCost int) uint64 {
		bank := hpc.NewBank()
		bank.Program(hpc.GlobalPowerEvents, period)
		c := New(bank, nil)
		c.SetNMIHandler(func(core *Core, s Snapshot, ev hpc.Event) {
			core.ExecBatch(addr.KernelBase, handlerCost, 4, 1)
		})
		for i := 0; i < 1000; i++ {
			c.Exec(Op{PC: 0x1000, Cost: 1})
		}
		return c.Cycles()
	}
	base := run(1<<62, 0) // effectively no sampling
	slow := run(100, 50)
	fast := run(10, 50)
	if !(base < slow && slow < fast) {
		t.Errorf("overhead not monotone in sampling rate: base=%d slow=%d fast=%d", base, slow, fast)
	}
}

func TestContextRestoredAfterNMI(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 5)
	c := New(bank, nil)
	c.SetNMIHandler(func(core *Core, s Snapshot, ev hpc.Event) {
		core.SetContext(Context{PID: 0, Kernel: true})
		core.Exec(Op{PC: addr.KernelBase + 4, Cost: 1})
	})
	c.SetContext(Context{PID: 42})
	for i := 0; i < 20; i++ {
		c.Exec(Op{PC: 0x1000, Cost: 1})
	}
	if got := c.Context(); got.PID != 42 || got.Kernel {
		t.Errorf("context after NMIs = %+v, want PID 42 user", got)
	}
}

func TestSliceAccounting(t *testing.T) {
	c := New(nil, nil)
	c.StartSlice(10)
	if c.Expired() {
		t.Fatal("fresh slice expired")
	}
	c.Exec(Op{PC: 0x1000, Cost: 4})
	if c.SliceLeft() != 6 {
		t.Errorf("SliceLeft = %d, want 6", c.SliceLeft())
	}
	c.Exec(Op{PC: 0x1000, Cost: 100}) // overrun saturates at 0
	if !c.Expired() || c.SliceLeft() != 0 {
		t.Errorf("slice not expired: left=%d", c.SliceLeft())
	}
}

// Property: total cycles ticked into the cycles counter equals the sum
// of op costs (no memory ops), and delivered NMIs plus latch-overflow
// losses account for every counter overflow. (A single op whose cost
// spans several periods can overflow more times than the latch holds;
// the excess is counted as lost, as on real hardware.)
func TestCycleAccountingQuick(t *testing.T) {
	f := func(costs []uint8, period uint16) bool {
		p := uint64(period%500) + 1
		bank := hpc.NewBank()
		bank.Program(hpc.GlobalPowerEvents, p)
		c := New(bank, nil)
		nmis := 0
		c.SetNMIHandler(func(_ *Core, _ Snapshot, _ hpc.Event) { nmis++ })
		var want uint64
		for _, cost := range costs {
			cc := uint32(cost%7) + 1
			c.Exec(Op{PC: 0x1000, Cost: cc})
			want += uint64(cc)
		}
		ctr, _ := bank.Counter(hpc.GlobalPowerEvents)
		return c.Cycles() == want && ctr.Total() == want &&
			uint64(nmis)+c.LostNMIs() == want/p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExecNoMem(b *testing.B) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 90_000)
	c := New(bank, cache.DefaultHierarchy())
	c.SetNMIHandler(func(_ *Core, _ Snapshot, _ hpc.Event) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(Op{PC: 0x1000, Cost: 1})
	}
}

func BenchmarkExecWithMem(b *testing.B) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 90_000)
	bank.Program(hpc.BSQCacheReference, 1000)
	c := New(bank, cache.DefaultHierarchy())
	c.SetNMIHandler(func(_ *Core, _ Snapshot, _ hpc.Event) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(Op{PC: 0x1000, Cost: 1, Mem: addr.Address(0x8000 + (i&0xFFFF)*8)})
	}
}

func TestTLBEventsTick(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.DTLBMiss, 1)
	bank.Program(hpc.ITLBMiss, 1)
	c := New(bank, cache.DefaultHierarchy())
	var dtlb, itlb int
	c.SetNMIHandler(func(_ *Core, _ Snapshot, ev hpc.Event) {
		switch ev {
		case hpc.DTLBMiss:
			dtlb++
		case hpc.ITLBMiss:
			itlb++
		}
	})
	// Touch 8 distinct data pages from 8 distinct code pages.
	for i := 0; i < 8; i++ {
		c.Exec(Op{PC: addr.Address(0x100000 + i*4096), Cost: 1,
			Mem: addr.Address(0x800000 + i*4096)})
	}
	if dtlb != 8 || itlb == 0 {
		t.Errorf("dtlb=%d itlb=%d, want 8 and >0", dtlb, itlb)
	}
	// Re-walking the same pages is TLB-warm.
	before := dtlb
	for i := 0; i < 8; i++ {
		c.Exec(Op{PC: addr.Address(0x100000 + i*4096), Cost: 1,
			Mem: addr.Address(0x800000 + i*4096)})
	}
	if dtlb != before {
		t.Errorf("warm pages missed DTLB: %d new misses", dtlb-before)
	}
}
