package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/hpc"
)

// nmiTrace records every delivered NMI exactly as the driver would see
// it: which event fired and the full interrupted snapshot.
type nmiTrace struct {
	evs   []hpc.Event
	snaps []Snapshot
}

func (tr *nmiTrace) handler(burn int) NMIHandler {
	return func(core *Core, s Snapshot, ev hpc.Event) {
		tr.evs = append(tr.evs, ev)
		tr.snaps = append(tr.snaps, s)
		if burn > 0 {
			core.ExecBatch(addr.KernelBase+0x40, burn, 4, 1)
		}
	}
}

// driveStream replays one seeded instruction stream — straight-line
// batches, streaming BatchOps, memory ops, slice grants, idle gaps —
// against a core. The stream mixes every call site the batched engine
// has: ExecBatch (kernel, agent), BatchOp (JVM dispatch), and
// precise Exec for memory operands.
func driveStream(c *Core, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pc := addr.Address(0x6000_0000)
	for step := 0; step < 400; step++ {
		switch r.Intn(10) {
		case 0:
			c.StartSlice(uint64(r.Intn(5000)))
		case 1:
			c.AdvanceIdle(uint64(r.Intn(200)))
		case 2, 3:
			// Memory op: precise path, perturbs cache + miss counters.
			c.Exec(Op{
				PC:   pc,
				Cost: uint32(1 + r.Intn(4)),
				Mem:  addr.Address(0x8000_0000 + r.Intn(1<<18)*8),
			})
			pc += 4
		case 4, 5:
			// Straight-line run, sometimes crossing pages.
			n := 1 + r.Intn(3000)
			c.ExecBatch(pc, n, 4, uint32(1+r.Intn(3)))
			pc += addr.Address(4 * n)
		default:
			// Streaming bytecode-style ops; occasional jump to a new page.
			for i := 1 + r.Intn(50); i > 0; i-- {
				c.BatchOp(pc, uint32(1+r.Intn(3)))
				pc += 4
			}
			if r.Intn(4) == 0 {
				pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
			}
		}
	}
	c.FlushBatch()
}

func newBatchTestCore(periods map[hpc.Event]uint64, tr *nmiTrace, burn int, batching bool) *Core {
	bank := hpc.NewBank()
	for ev, p := range periods {
		bank.Program(ev, p)
	}
	c := New(bank, cache.DefaultHierarchy())
	c.SetNMIHandler(tr.handler(burn))
	c.SetBatching(batching)
	return c
}

// Property: batched and per-op execution of the same stream are
// bit-for-bit identical — same cycle clock, instruction count, final
// PC, slice budget, lost-NMI count, per-counter totals, and the same
// NMI sequence down to each interrupted snapshot.
func TestBatchDeterminismQuick(t *testing.T) {
	f := func(seed int64, rawPeriod uint32, burn8 uint8) bool {
		period := uint64(rawPeriod%20_000) + 50
		periods := map[hpc.Event]uint64{
			hpc.GlobalPowerEvents: period,
			hpc.BSQCacheReference: 400,
			hpc.InstrRetired:      3 * period,
		}
		burn := int(burn8 % 60)
		var trB, trP nmiTrace
		cb := newBatchTestCore(periods, &trB, burn, true)
		cp := newBatchTestCore(periods, &trP, burn, false)
		driveStream(cb, seed)
		driveStream(cp, seed)
		if cb.Cycles() != cp.Cycles() || cb.Instructions() != cp.Instructions() ||
			cb.PC() != cp.PC() || cb.SliceLeft() != cp.SliceLeft() ||
			cb.LostNMIs() != cp.LostNMIs() {
			t.Logf("state diverged: cycles %d/%d instrs %d/%d pc %x/%x slice %d/%d lost %d/%d",
				cb.Cycles(), cp.Cycles(), cb.Instructions(), cp.Instructions(),
				uint64(cb.PC()), uint64(cp.PC()), cb.SliceLeft(), cp.SliceLeft(),
				cb.LostNMIs(), cp.LostNMIs())
			return false
		}
		for ev := range periods {
			b, _ := cb.Bank.Counter(ev)
			p, _ := cp.Bank.Counter(ev)
			if b.Total() != p.Total() {
				t.Logf("%v totals diverged: %d vs %d", ev, b.Total(), p.Total())
				return false
			}
		}
		if len(trB.evs) != len(trP.evs) {
			t.Logf("NMI count diverged: %d vs %d", len(trB.evs), len(trP.evs))
			return false
		}
		for i := range trB.evs {
			if trB.evs[i] != trP.evs[i] || trB.snaps[i] != trP.snaps[i] {
				t.Logf("NMI %d diverged: %v %+v vs %v %+v",
					i, trB.evs[i], trB.snaps[i], trP.evs[i], trP.snaps[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Mid-batch scalar state must be exact: executors poll Cycles() and
// Expired() between BatchOps, so the accumulator may defer only bank
// ticks, never the clock or the slice.
func TestBatchOpEagerScalars(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 1_000_000) // far horizon: batch stays open
	c := New(bank, nil)
	c.StartSlice(10)
	for i := 0; i < 4; i++ {
		c.BatchOp(addr.Address(0x1000+i*4), 2)
	}
	if c.Cycles() != 8 || c.Instructions() != 4 || c.SliceLeft() != 2 || c.Expired() {
		t.Errorf("mid-batch scalars lag: cycles=%d instrs=%d slice=%d",
			c.Cycles(), c.Instructions(), c.SliceLeft())
	}
	// The bank is allowed to lag only until the flush.
	ctr, _ := bank.Counter(hpc.GlobalPowerEvents)
	c.FlushBatch()
	if ctr.Total() != 8 {
		t.Errorf("flushed bank total = %d, want 8", ctr.Total())
	}
	c.BatchOp(0x2000, 100)
	if !c.Expired() {
		t.Error("slice clamp not visible mid-stream")
	}
}

// An op that would overflow an armed counter must leave the batch and
// run precisely, delivering its NMI at the same instruction the per-op
// path would.
func TestBatchOpHorizonFallback(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 10)
	c := New(bank, nil)
	var pcs []addr.Address
	c.SetNMIHandler(func(_ *Core, s Snapshot, _ hpc.Event) { pcs = append(pcs, s.PC) })
	for i := 0; i < 30; i++ {
		c.BatchOp(addr.Address(0x3000+i*4), 1)
	}
	c.FlushBatch()
	want := []addr.Address{0x3000 + 9*4, 0x3000 + 19*4, 0x3000 + 29*4}
	if len(pcs) != len(want) {
		t.Fatalf("NMI pcs = %v, want %v", pcs, want)
	}
	for i := range want {
		if pcs[i] != want[i] {
			t.Errorf("NMI %d at %s, want %s", i, pcs[i], want[i])
		}
	}
}

// memStrides covers the shapes ExecMemBatch must replay exactly:
// stride 0 (one line hammered), word/line-sub strides, exactly one
// line, and line- and page-crossing jumps.
var memStrides = []uint32{0, 8, 16, 24, 64, 200, 4096}

// driveMemStream replays one seeded stream that leans on the memory
// side of the batched engine: bulk ExecMemBatch runs, streaming
// BatchMemOps with line locality, scattered precise memory ops, plus
// the instruction-side mix (ExecBatch, BatchOp, slices, idle gaps) and
// the kernel's behind-the-back L1 cold flush.
func driveMemStream(c *Core, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pc := addr.Address(0x6000_0000)
	mem := addr.Address(0x8000_0000)
	for step := 0; step < 250; step++ {
		switch r.Intn(12) {
		case 0:
			c.StartSlice(uint64(r.Intn(5000)))
		case 1:
			c.AdvanceIdle(uint64(r.Intn(200)))
		case 2:
			// Scattered precise memory op.
			c.Exec(Op{
				PC:   pc,
				Cost: uint32(1 + r.Intn(4)),
				Mem:  addr.Address(0x8000_0000 + r.Intn(1<<18)*8),
			})
			pc += 4
		case 3, 4, 5:
			// Bulk memory run (arraycopy/GC-copy shape).
			n := 1 + r.Intn(2000)
			base := addr.Address(0x8000_0000 + r.Intn(1<<20)*8)
			c.ExecMemBatch(pc, n, 4, uint32(1+r.Intn(3)), base, memStrides[r.Intn(len(memStrides))])
			pc += addr.Address(4 * n)
		case 6, 7:
			// Streaming memory ops walking sequentially: line locality
			// the guaranteed-hit accumulator should exploit.
			for i := 1 + r.Intn(60); i > 0; i-- {
				c.BatchMemOp(pc, uint32(1+r.Intn(2)), mem)
				mem += addr.Address(r.Intn(16))
				pc += 4
			}
		case 8:
			n := 1 + r.Intn(1500)
			c.ExecBatch(pc, n, 4, uint32(1+r.Intn(3)))
			pc += addr.Address(4 * n)
		case 9:
			// Context-switch cold flush behind the engine's back.
			if c.Mem != nil {
				c.FlushBatch()
				c.Mem.L1.Flush()
			}
		default:
			for i := 1 + r.Intn(50); i > 0; i-- {
				c.BatchOp(pc, uint32(1+r.Intn(3)))
				pc += 4
			}
			if r.Intn(4) == 0 {
				pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
			}
		}
		if r.Intn(5) == 0 {
			mem = addr.Address(0x8000_0000 + r.Intn(1<<20)*8)
		}
	}
	c.FlushBatch()
}

// Property: batched and per-op execution of the same memory-heavy
// stream are bit-for-bit identical — cycles, instructions, PC, slice,
// lost NMIs, per-counter totals (including the memory-event counters),
// cache statistics at every level, and the NMI sequence down to each
// interrupted snapshot.
func TestMemBatchDeterminismQuick(t *testing.T) {
	f := func(seed int64, rawPeriod uint32, burn8 uint8) bool {
		period := uint64(rawPeriod%20_000) + 50
		periods := map[hpc.Event]uint64{
			hpc.GlobalPowerEvents: period,
			hpc.BSQCacheReference: 300,
			hpc.DTLBMiss:          200,
			hpc.InstrRetired:      3 * period,
		}
		burn := int(burn8 % 60)
		var trB, trP nmiTrace
		cb := newBatchTestCore(periods, &trB, burn, true)
		cp := newBatchTestCore(periods, &trP, burn, false)
		driveMemStream(cb, seed)
		driveMemStream(cp, seed)
		if cb.Cycles() != cp.Cycles() || cb.Instructions() != cp.Instructions() ||
			cb.PC() != cp.PC() || cb.SliceLeft() != cp.SliceLeft() ||
			cb.LostNMIs() != cp.LostNMIs() {
			t.Logf("state diverged: cycles %d/%d instrs %d/%d pc %x/%x slice %d/%d lost %d/%d",
				cb.Cycles(), cp.Cycles(), cb.Instructions(), cp.Instructions(),
				uint64(cb.PC()), uint64(cp.PC()), cb.SliceLeft(), cp.SliceLeft(),
				cb.LostNMIs(), cp.LostNMIs())
			return false
		}
		for ev := range periods {
			b, _ := cb.Bank.Counter(ev)
			p, _ := cp.Bank.Counter(ev)
			if b.Total() != p.Total() {
				t.Logf("%v totals diverged: %d vs %d", ev, b.Total(), p.Total())
				return false
			}
		}
		for _, lvl := range []struct {
			name string
			b, p *cache.Cache
		}{
			{"L1", cb.Mem.L1, cp.Mem.L1},
			{"L2", cb.Mem.L2, cp.Mem.L2},
			{"DTLB", cb.Mem.DTLB, cp.Mem.DTLB},
			{"ITLB", cb.Mem.ITLB, cp.Mem.ITLB},
		} {
			ba, bm := lvl.b.Stats()
			pa, pm := lvl.p.Stats()
			if ba != pa || bm != pm {
				t.Logf("%s stats diverged: %d/%d vs %d/%d", lvl.name, ba, bm, pa, pm)
				return false
			}
		}
		if len(trB.evs) != len(trP.evs) {
			t.Logf("NMI count diverged: %d vs %d", len(trB.evs), len(trP.evs))
			return false
		}
		for i := range trB.evs {
			if trB.evs[i] != trP.evs[i] || trB.snaps[i] != trP.snaps[i] {
				t.Logf("NMI %d diverged: %v %+v vs %v %+v",
					i, trB.evs[i], trB.snaps[i], trP.evs[i], trP.snaps[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Samples must land on the exact op that crossed the counter period:
// with a BSQ period of 2, every second L2 miss of a cold sequential
// run delivers an NMI whose snapshot PC is the missing op's PC —
// identical between the bulk-replay and per-op paths.
func TestMemBatchSamplePCs(t *testing.T) {
	run := func(batching bool) []addr.Address {
		bank := hpc.NewBank()
		bank.Program(hpc.BSQCacheReference, 2)
		c := New(bank, cache.DefaultHierarchy())
		var pcs []addr.Address
		c.SetNMIHandler(func(_ *Core, s Snapshot, _ hpc.Event) { pcs = append(pcs, s.PC) })
		c.SetBatching(batching)
		// 256 ops striding one op per 16 bytes: a cold L2 miss every
		// 8th op (128-byte L2 lines).
		c.ExecMemBatch(0x7000_0000, 256, 4, 1, 0x9000_0000, 16)
		c.FlushBatch()
		return pcs
	}
	got, want := run(true), run(false)
	if len(got) == 0 {
		t.Fatal("no NMIs delivered")
	}
	if len(got) != len(want) {
		t.Fatalf("NMI count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("NMI %d at %s, want %s", i, got[i], want[i])
		}
	}
}

// BatchMemOp must accumulate only provable hits: a sequential walk
// touches a new line every 8th word-op, and those ops (plus anything
// after a cold flush) take the precise path, keeping the miss sequence
// and counter state identical to per-op execution.
func TestBatchMemOpLineLocality(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 1_000_000)
	c := New(bank, cache.DefaultHierarchy())
	for i := 0; i < 64; i++ {
		c.BatchMemOp(addr.Address(0x7000_0000+i*4), 1, addr.Address(0x9000_0000+i*8))
	}
	c.FlushBatch()
	acc, misses := c.Mem.L1.Stats()
	if acc != 64 {
		t.Errorf("L1 accesses = %d, want 64 (deferred touches must still count)", acc)
	}
	if misses != 8 {
		t.Errorf("L1 misses = %d, want 8 (one per 64-byte line)", misses)
	}
}
