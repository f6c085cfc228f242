package viprof

// The deterministic memory-operand stream behind BenchmarkExecMemBatch
// and TestMemBatchStreamPinned. The stream is shaped like the data-heavy
// phases the batched memory path exists for: arraycopy block copies
// (alternating read and write runs over hot few-KiB arrays, the shape
// IntrArrayCopy emits), GC semispace copy sweeps
// (long sequential 8-byte-stride walks over cold to-space), memset fills,
// and a minority of scattered pointer-chasing loads and instruction-only
// dispatch blocks so the horizon logic is exercised, not bypassed. Both
// benchmark sides replay the identical stream through the identical entry
// points; the per-op side only has batching disabled, so the measured
// delta is exactly the memory-run engine.

import (
	"math/rand"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
)

// memBenchOps is the stream length of one repetition: roughly the
// memory-operand volume of a paper-scale fop run (arraycopy + GC copy
// dominated).
const memBenchOps = 8_000_000

// memBenchCore builds a core configured like the benchmark harness: both
// paper events armed at the most aggressive periods, an NMI handler
// charging a driver-sized instruction-only cost, and the batching engine
// switched per the ablation side.
func memBenchCore(batched bool) *cpu.Core {
	bank := hpc.NewBank()
	bank.Program(hpc.GlobalPowerEvents, 45_000)
	bank.Program(hpc.BSQCacheReference, 90_000)
	c := cpu.New(bank, cache.DefaultHierarchy())
	c.SetNMIHandler(func(core *cpu.Core, _ cpu.Snapshot, _ hpc.Event) {
		core.ExecBatch(addr.KernelBase+0x80, 120, 4, 1)
	})
	c.SetBatching(batched)
	return c
}

// memBatchStream drives memBenchOps micro-ops of the memory-operand
// stream through the core and returns the final cycle count, which both
// sides of the ablation must agree on bit for bit.
func memBatchStream(c *cpu.Core) uint64 {
	r := rand.New(rand.NewSource(11))
	pc := addr.Address(0x6000_0000)
	const (
		heap    = addr.Address(0x8000_0000) // arraycopy hot arrays live here
		toSpace = addr.Address(0x8C00_0000) // GC copy streams into this semispace
		scratch = addr.Address(0x9800_0000) // memset target, one hot 4 KiB buffer
	)
	gcCursor := toSpace
	for done := 0; done < memBenchOps; {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			// Arraycopy block copy: 32-op blocks alternating src reads
			// and dst writes, 8-byte element stride, the shape
			// IntrArrayCopy emits. The operands are the same few-KiB
			// arrays copied over and over — an L1-resident working set,
			// the way a JVM renderer re-copies its buffers — so the
			// stream is hit-dominated: the per-op side pays a full probe
			// for every one of those guaranteed hits, the batched side
			// one probe per line plus arithmetic.
			n := 128 + r.Intn(384)
			src := heap + addr.Address(r.Intn(1<<9)*8)
			dst := heap + 1<<13 + addr.Address(r.Intn(1<<9)*8)
			for base := 0; base < n; base += 128 {
				bn := n - base
				if bn > 128 {
					bn = 128
				}
				sn := (bn + 1) / 2
				dn := bn / 2
				c.ExecMemBatch(pc, sn, 4, 1, src, 8)
				pc += addr.Address(4 * sn)
				src += addr.Address(8 * sn)
				if dn > 0 {
					c.ExecMemBatch(pc, dn, 4, 1, dst, 8)
					pc += addr.Address(4 * dn)
					dst += addr.Address(8 * dn)
				}
			}
			done += n
		case 6:
			// GC semispace copy: alternating reads of live from-space
			// objects (mutator-warm) and sequential stride-8 writes into
			// cold to-space. The cold halves miss on both sides
			// identically — the batched win there is only the tail ops
			// of each line.
			n := 256 + r.Intn(1024)
			from := heap + addr.Address(r.Intn(1<<9)*8)
			for base := 0; base < n; base += 128 {
				bn := n - base
				if bn > 128 {
					bn = 128
				}
				sn := (bn + 1) / 2
				dn := bn / 2
				c.ExecMemBatch(pc, sn, 4, 1, from, 8)
				pc += addr.Address(4 * sn)
				from += addr.Address(8 * sn)
				if dn > 0 {
					c.ExecMemBatch(pc, dn, 4, 1, gcCursor, 8)
					pc += addr.Address(4 * dn)
					gcCursor += addr.Address(8 * dn)
				}
			}
			if gcCursor >= toSpace+1<<22 {
				gcCursor = toSpace
			}
			done += n
		case 7:
			// Memset fill of the hot scratch buffer: one bulk run, 16
			// bytes per op.
			n := 128 + r.Intn(256)
			c.ExecMemBatch(pc, n, 4, 1, scratch+addr.Address(r.Intn(1<<6)*64), 16)
			pc += addr.Address(4 * n)
			done += n
		case 8:
			// Streaming writes issued op by op, the shape the JVM's
			// memory-operand bytecode loop feeds BatchMemOp, with an
			// occasional line-hopping pointer chase that falls back to
			// the precise path on both sides.
			n := 128 + r.Intn(256)
			stream := heap + addr.Address(r.Intn(1<<9)*8)
			for j := 0; j < n; j++ {
				if j%32 == 31 {
					c.BatchMemOp(pc, 1, heap+addr.Address(r.Intn(1<<20)*64))
				} else {
					c.BatchMemOp(pc, 1, stream)
					stream += 8
				}
				pc += 4
			}
			done += n
		default:
			// Bytecode-style dispatch block, then a "call" elsewhere.
			n := 4 + r.Intn(12)
			for j := 0; j < n; j++ {
				c.BatchOp(pc, uint32(1+j%3))
				pc += 4
			}
			done += n
			pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
		}
		if pc >= 0x7000_0000 {
			pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
		}
	}
	c.FlushBatch()
	return c.Cycles()
}

// TestMemBatchStreamPinned pins the stream's final cycle count on both
// sides of the ablation, so a change to the cost model of memory runs
// shows up as a moved pin, not only as two sides that still agree.
func TestMemBatchStreamPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("8 M-op stream twice")
	}
	for _, batched := range []bool{true, false} {
		if got := memBatchStream(memBenchCore(batched)); got != 20_409_213 {
			t.Errorf("batched=%v: %d cycles, want 20409213", batched, got)
		}
	}
}
