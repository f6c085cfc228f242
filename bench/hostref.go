package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants slow it by
// a factor of two or more for minutes at a time, so the same rep's host
// time moves by more than any bound a change could be held to. The
// end-to-end host-clock metrics are therefore rescaled to a fixed host
// speed. The benchmark times a fixed reference task just before each
// rep, inside it every few hundred milliseconds, and just after it, and
// multiplies the rep's host seconds by refNominal ÷ (mean of those
// reference times). The rep's clock and spans leave out the reference
// runs inside it.
//
// The reference task is an LRU cache model whose tags fit in L2, which
// slows as much as the simulator does when the host is busy, and
// streaming passes over 16 MiB, which slow as much as the fleet's
// allocation-heavy path. A pointer chase through main memory and a
// pure-arithmetic loop both slowed much less than the workloads, and
// are left out. The task uses only this file, calls no code of the
// repository, and keeps its state in memory mapped outside the Go heap,
// so it allocates nothing, adds nothing to the heap the collector scans
// or the metrics measure, and no change to the program moves it: a
// program twice as fast still reads twice as fast.

// refNominal is the reference task's time on a quiet 2-vCPU Xeon VM at
// 2.0 GHz, the host the bounds were set on. Rescaled seconds read as
// seconds on that host.
const refNominal = 30 * time.Millisecond

// A rep runs at least refGap times the latest reference time between
// two reference runs, so they pause it for under a tenth of its host
// time: every 400 ms or so on a quiet host. Reps pause only between
// public calls and, through a kernel ticker every refTickCycles
// simulated cycles, at the simulated scheduler's boundaries; the ticker
// touches no simulated state.
const (
	refGap        = 12
	refTickCycles = 100_000
)

const (
	refSets, refWays = 4096, 8
	refStreamLen     = 1 << 21 // uint64s: 16 MiB
)

var (
	// refMu serializes refTask, whose state is shared.
	refMu     sync.Mutex
	refTags   []uint64
	refStream []uint64
	refSink   uint64
	// refLatest is the latest reference time, in nanoseconds.
	refLatest atomic.Int64

	refInit = sync.OnceFunc(func() {
		refTags = mmapUint64s(refSets * refWays)
		refStream = mmapUint64s(refStreamLen)
	})
)

// mmapUint64s maps n zeroed uint64s of anonymous memory outside the Go
// heap. They are never unmapped.
func mmapUint64s(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("bench: mapping the reference task's memory: %v", err))
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// refTask runs the reference task once and returns its host time.
// refMu guards its memory, so the race detector need not watch it;
// uninstrumented, it takes about as long under the detector as without.
//
//go:norace
func refTask() time.Duration {
	refMu.Lock()
	defer refMu.Unlock()
	refInit()
	t0 := time.Now()
	// An 8-way LRU cache of 64-byte lines over a 16 MiB address range.
	clear(refTags)
	x := uint64(88172645463325252)
	var hits uint64
	for i := 0; i < 1_400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		line := (x & 0xffffff) >> 6
		set := refTags[int(line%refSets)*refWays:][:refWays]
		w := 0
		for w < refWays-1 && set[w] != line {
			w++
		}
		if set[w] == line {
			hits++
		}
		copy(set[1:w+1], set[:w])
		set[0] = line
	}
	// Read-modify-write passes over refStream.
	for k := 0; k < 7; k++ {
		for i := range refStream {
			refStream[i] += uint64(i)
		}
	}
	refSink += hits + refStream[x%refStreamLen]
	d := time.Since(t0)
	refLatest.Store(int64(d))
	return d
}

// hostScale is the factor that rescales host seconds measured among the
// given reference runs to refNominal's host.
func hostScale(refs []time.Duration) float64 {
	var sum time.Duration
	for _, d := range refs {
		sum += d
	}
	return refNominal.Seconds() * float64(len(refs)) / sum.Seconds()
}
