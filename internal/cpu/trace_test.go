package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/hpc"
)

// scatterMems generates a scattered operand vector for ExecScatter:
// zero slots (no memory operand), exact duplicates, same-line and
// same-page neighbours, and cold far jumps — the operand shape of the
// JVM's service-routine memory traffic.
func scatterMems(r *rand.Rand, n int) []addr.Address {
	hot := make([]addr.Address, 1+r.Intn(6))
	for i := range hot {
		hot[i] = addr.Address(0x8000_0000 + r.Intn(1<<22))
	}
	mems := make([]addr.Address, n)
	for i := range mems {
		switch r.Intn(10) {
		case 0, 1, 2: // no memory operand
			mems[i] = 0
		case 3, 4: // duplicate or same-line hot operand
			mems[i] = hot[r.Intn(len(hot))] + addr.Address(r.Intn(64))
		case 5, 6: // same page, different line
			mems[i] = hot[r.Intn(len(hot))]&^0xFFF + addr.Address(r.Intn(1<<12))
		default: // cold scatter
			mems[i] = addr.Address(0x8000_0000 + r.Intn(1<<26))
		}
	}
	return mems
}

// driveScatterStream replays one seeded stream centred on ExecScatter
// runs, interleaved with the rest of the engine's call sites so the
// scattered fast path composes with streaming batches, precise ops,
// slice grants, and behind-the-back cache flushes.
func driveScatterStream(c *Core, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pc := addr.Address(0x6000_0000)
	for step := 0; step < 200; step++ {
		switch r.Intn(10) {
		case 0:
			c.StartSlice(uint64(r.Intn(5000)))
		case 1:
			c.AdvanceIdle(uint64(r.Intn(200)))
		case 2:
			c.Exec(Op{
				PC:   pc,
				Cost: uint32(1 + r.Intn(4)),
				Mem:  addr.Address(0x8000_0000 + r.Intn(1<<18)*8),
			})
			pc += 4
		case 3:
			n := 1 + r.Intn(1000)
			c.ExecBatch(pc, n, 4, uint32(1+r.Intn(3)))
			pc += addr.Address(4 * n)
		case 4:
			for i := 1 + r.Intn(40); i > 0; i-- {
				c.BatchOp(pc, uint32(1+r.Intn(3)))
				pc += 4
			}
		case 5:
			// Context-switch cold flush behind the engine's back.
			if c.Mem != nil {
				c.FlushBatch()
				c.Mem.L1.Flush()
			}
		default:
			n := 1 + r.Intn(400)
			c.ExecScatter(pc, 4, uint32(1+r.Intn(3)), scatterMems(r, n))
			pc += addr.Address(4 * n)
		}
		if r.Intn(4) == 0 {
			pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
		}
	}
	c.FlushBatch()
}

// Property: ExecScatter is bit-for-bit identical to the per-op Exec
// loop over its operand vector — cycles, instructions, PC, slice,
// per-counter totals, cache statistics at every level, and the NMI
// sequence down to each interrupted snapshot — including duplicate
// operands, zero slots, and conflict evictions.
func TestExecScatterDeterminismQuick(t *testing.T) {
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
		driveScatterStream(cb, seed)
		driveScatterStream(cp, seed)
		return compareCores(t, cb, cp, periods, &trB, &trP)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Error(err)
	}
}

// replayFused retires n page-local ops from pc the way the JVM's trace
// replayer does: cut into segments, each retired in one BatchRun when
// it fits the open batch whole and op by op through BatchOp when it
// does not, with memory ops near mem streaming through BatchMemOp
// between segments. Every random draw is taken before the core is
// asked, so a batched core and its per-op oracle (where BatchRun
// always refuses) see the same stream. It returns the next PC.
func replayFused(c *Core, r *rand.Rand, pc, mem addr.Address, n int) addr.Address {
	for n > 0 {
		costs := make([]uint32, min(1+r.Intn(12), n))
		var total uint64
		for i := range costs {
			costs[i] = uint32(1 + r.Intn(4))
			total += uint64(costs[i])
		}
		last := pc + addr.Address(4*(len(costs)-1))
		if !c.BatchRun(pc, last, uint64(len(costs)), total) {
			for i, cost := range costs {
				c.BatchOp(pc+addr.Address(4*i), cost)
			}
		}
		pc, n = last+4, n-len(costs)
		if n > 0 && r.Intn(3) == 0 {
			c.BatchMemOp(pc, uint32(1+r.Intn(3)), mem+addr.Address(r.Intn(32)))
			pc, n = pc+4, n-1
		}
	}
	return pc
}

// driveFusedStream mixes fused stretches with every other call site of
// the engine — precise ops, streaming BatchOps, bulk runs, slice
// grants, idle gaps, flushes — including page jumps that make BatchRun
// refuse until the ITLB state settles.
func driveFusedStream(c *Core, seed int64) {
	r := rand.New(rand.NewSource(seed))
	pc := addr.Address(0x6000_0000)
	mem := addr.Address(0x8000_0000)
	for step := 0; step < 250; step++ {
		switch r.Intn(10) {
		case 0:
			c.StartSlice(uint64(r.Intn(5000)))
		case 1:
			c.AdvanceIdle(uint64(r.Intn(200)))
		case 2:
			c.Exec(Op{
				PC:   pc,
				Cost: uint32(1 + r.Intn(4)),
				Mem:  addr.Address(0x8000_0000 + r.Intn(1<<18)*8),
			})
			pc += 4
		case 3:
			for i := 1 + r.Intn(30); i > 0; i-- {
				c.BatchOp(pc, uint32(1+r.Intn(3)))
				pc += 4
			}
		case 4:
			n := 1 + r.Intn(1000)
			c.ExecBatch(pc, n, 4, uint32(1+r.Intn(3)))
			pc += addr.Address(4 * n)
		case 5:
			c.FlushBatch()
		default:
			pc = replayFused(c, r, pc, mem, 1+r.Intn(60))
		}
		if r.Intn(5) == 0 {
			pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
		}
		if r.Intn(5) == 0 {
			mem = addr.Address(0x8000_0000 + r.Intn(1<<20)*8)
		}
	}
	c.FlushBatch()
}

// Property: fused stretches retired through BatchRun, interleaved with
// the rest of the engine, are bit-for-bit identical to per-op execution
// of the same instruction stream, including NMIs landing on the exact
// boundary ops where the per-op path delivers them.
func TestBatchRunDeterminismQuick(t *testing.T) {
	f := func(seed int64, rawPeriod uint32, burn8 uint8) bool {
		period := uint64(rawPeriod%5_000) + 20
		periods := map[hpc.Event]uint64{
			hpc.GlobalPowerEvents: period,
			hpc.BSQCacheReference: 300,
			hpc.DTLBMiss:          200,
			hpc.InstrRetired:      2*period + 7,
		}
		burn := int(burn8 % 60)
		var trB, trP nmiTrace
		cb := newBatchTestCore(periods, &trB, burn, true)
		cp := newBatchTestCore(periods, &trP, burn, false)
		driveFusedStream(cb, seed)
		driveFusedStream(cp, seed)
		return compareCores(t, cb, cp, periods, &trB, &trP)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.6}); err != nil {
		t.Error(err)
	}
}

// BatchRun must refuse, retiring nothing, whenever a fused stretch
// could hide an observable event: a latched NMI waiting to drain, a
// first or last PC off the batch's instruction page under an ITLB, an
// armed counter within n ops or `cost` cycles of overflow, or batching
// off. A stretch that uses the whole horizon on the page is taken.
func TestBatchRunRefusals(t *testing.T) {
	const page = addr.Address(0x5000_0000)
	newCore := func() *Core {
		bank := hpc.NewBank()
		bank.Program(hpc.InstrRetired, 10)
		bank.Program(hpc.GlobalPowerEvents, 1000)
		c := New(bank, cache.DefaultHierarchy())
		c.StartSlice(5000)
		c.Exec(Op{PC: page, Cost: 1}) // the ITLB now maps page
		return c
	}
	c := newCore()
	ops, cyc := c.Bank.NextOverflowIn(hpc.InstrRetired), c.Bank.NextOverflowIn(hpc.GlobalPowerEvents)
	if ops == 0 || cyc == 0 || !c.BatchRun(page+0x100, page+0xFFC, ops, cyc) {
		t.Fatalf("a stretch using the whole horizon (%d ops, %d cycles) was refused", ops, cyc)
	}
	cases := []struct {
		name        string
		setup       func(c *Core)
		first, last addr.Address
		n, cost     uint64
	}{
		{"latched NMI", func(c *Core) {
			ctr, _ := c.Bank.Counter(hpc.GlobalPowerEvents)
			c.onOverflow(ctr)
		}, page + 0x100, page + 0x200, 1, 1},
		{"first PC off the page", nil, page + 0x1000, page + 0x1010, 1, 1},
		{"last PC off the page", nil, page + 0x100, page + 0x1100, 2, 2},
		{"instructions within n of overflow", nil, page + 0x100, page + 0x200, ops + 1, 1},
		{"cycles within cost of overflow", nil, page + 0x100, page + 0x200, 1, cyc + 1},
		{"batching off", func(c *Core) { c.SetBatching(false) }, page + 0x100, page + 0x200, 1, 1},
	}
	for _, tc := range cases {
		c := newCore()
		if tc.setup != nil {
			tc.setup(c)
		}
		cycles, instrs, pc, slice := c.Cycles(), c.Instructions(), c.PC(), c.SliceLeft()
		if c.BatchRun(tc.first, tc.last, tc.n, tc.cost) {
			t.Errorf("%s: stretch granted", tc.name)
		}
		c.FlushBatch()
		ir, _ := c.Bank.Counter(hpc.InstrRetired)
		gpe, _ := c.Bank.Counter(hpc.GlobalPowerEvents)
		if c.Cycles() != cycles || c.Instructions() != instrs || c.PC() != pc || c.SliceLeft() != slice ||
			ir.Total() != instrs || gpe.Total() != cycles {
			t.Errorf("%s: refusal retired something: cycles %d->%d instrs %d->%d pc %s->%s slice %d->%d ticks %d/%d",
				tc.name, cycles, c.Cycles(), instrs, c.Instructions(), pc, c.PC(), slice, c.SliceLeft(),
				ir.Total(), gpe.Total())
		}
	}
}

// BatchRun's scalars are eager, as BatchOp's are: the PC of the
// stretch's last op, the instruction and cycle totals and the slice,
// clamped at zero, are exact as soon as it returns. The counter ticks
// land only at FlushBatch, as the summed per-op ticks.
func TestBatchRunEagerScalars(t *testing.T) {
	bank := hpc.NewBank()
	bank.Program(hpc.InstrRetired, 1000)
	bank.Program(hpc.GlobalPowerEvents, 1000)
	c := New(bank, nil)
	c.StartSlice(25)
	ir, _ := bank.Counter(hpc.InstrRetired)
	gpe, _ := bank.Counter(hpc.GlobalPowerEvents)
	if !c.BatchRun(0x2000, 0x2020, 9, 18) {
		t.Fatal("stretch refused")
	}
	if c.PC() != 0x2020 || c.Instructions() != 9 || c.Cycles() != 18 || c.SliceLeft() != 7 {
		t.Errorf("state = pc %x instrs %d cycles %d slice %d",
			uint64(c.PC()), c.Instructions(), c.Cycles(), c.SliceLeft())
	}
	// Clamp: a stretch costing more than the slice has left pins it at zero.
	if !c.BatchRun(0x2024, 0x2040, 3, 100) {
		t.Fatal("second stretch refused")
	}
	if c.SliceLeft() != 0 || !c.Expired() || c.Instructions() != 12 || c.Cycles() != 118 {
		t.Errorf("after clamp: slice %d instrs %d cycles %d, want 0, 12, 118",
			c.SliceLeft(), c.Instructions(), c.Cycles())
	}
	if ir.Total() != 0 || gpe.Total() != 0 {
		t.Errorf("ticks landed before the flush: %d instrs, %d cycles", ir.Total(), gpe.Total())
	}
	c.FlushBatch()
	if ir.Total() != 12 || gpe.Total() != 118 {
		t.Errorf("flushed ticks = %d instrs, %d cycles, want 12, 118", ir.Total(), gpe.Total())
	}
}

// Samples during a scattered run must land on the exact missing ops:
// identical NMI PC sequences between the resolved-upfront fast path and
// per-op execution.
func TestExecScatterSamplePCs(t *testing.T) {
	mems := make([]addr.Address, 300)
	r := rand.New(rand.NewSource(7))
	for i := range mems {
		if r.Intn(3) == 0 {
			mems[i] = 0
		} else {
			mems[i] = addr.Address(0x9000_0000 + r.Intn(1<<16)*8)
		}
	}
	run := func(batching bool) []addr.Address {
		bank := hpc.NewBank()
		bank.Program(hpc.BSQCacheReference, 2)
		c := New(bank, cache.DefaultHierarchy())
		var pcs []addr.Address
		c.SetNMIHandler(func(_ *Core, s Snapshot, _ hpc.Event) { pcs = append(pcs, s.PC) })
		c.SetBatching(batching)
		c.ExecScatter(0x7000_0000, 4, 1, mems)
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
