package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValid(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1, LineBits: 6},
		{Sets: 3, Ways: 1, LineBits: 6},
		{Sets: -4, Ways: 1, LineBits: 6},
		{Sets: 4, Ways: 0, LineBits: 6},
		{Sets: 4, Ways: 2, LineBits: 1},
		{Sets: 4, Ways: 2, LineBits: 13},
	}
	for _, cfg := range bad {
		if err := cfg.Valid(); err == nil {
			t.Errorf("Config %+v accepted", cfg)
		}
	}
	good := Config{Sets: 64, Ways: 4, LineBits: 6}
	if err := good.Valid(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if good.SizeBytes() != 64*4*64 {
		t.Errorf("SizeBytes = %d", good.SizeBytes())
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustNew(t, Config{Sets: 16, Ways: 2, LineBits: 6})
	a := addr.Address(0x1000)
	if c.Access(a) {
		t.Error("cold access hit")
	}
	if !c.Access(a) {
		t.Error("second access missed")
	}
	if !c.Access(a + 63) {
		t.Error("same-line access missed")
	}
	if c.Access(a + 64) {
		t.Error("next-line cold access hit")
	}
	acc, miss := c.Stats()
	if acc != 4 || miss != 2 {
		t.Errorf("stats = %d/%d, want 4/2", acc, miss)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 1 set, 2 ways. Three distinct lines thrash.
	c := mustNew(t, Config{Sets: 1, Ways: 2, LineBits: 6})
	a := addr.Address(0x0040) // avoid line address 0
	b := addr.Address(0x0080)
	d := addr.Address(0x00C0)
	c.Access(a) // miss, insert a
	c.Access(b) // miss, insert b
	c.Access(a) // hit, a most recent
	c.Access(d) // miss, evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a (MRU) was evicted")
	}
	if c.Contains(b) {
		t.Error("b (LRU) not evicted")
	}
	if !c.Contains(d) {
		t.Error("d not inserted")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, Config{Sets: 8, Ways: 2, LineBits: 6})
	for i := 0; i < 16; i++ {
		c.Access(addr.Address(0x1000 + i*64))
	}
	c.Flush()
	for i := 0; i < 16; i++ {
		if c.Contains(addr.Address(0x1000 + i*64)) {
			t.Fatalf("line %d survived flush", i)
		}
	}
}

// Property: working sets that fit in one set's ways never miss after the
// first touch, regardless of access order.
func TestNoCapacityMissWithinWaysQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Sets: 16, Ways: 4, LineBits: 6})
		if err != nil {
			return false
		}
		// 4 lines, all in the same set (stride = sets*lineSize).
		stride := 16 * 64
		base := addr.Address((rng.Intn(100) + 1) * stride)
		lines := []addr.Address{base, base + addr.Address(stride), base + addr.Address(2*stride), base + addr.Address(3*stride)}
		for _, l := range lines {
			c.Access(l)
		}
		for i := 0; i < 200; i++ {
			l := lines[rng.Intn(len(lines))]
			if !c.Access(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Contains agrees with a shadow model under random accesses
// for a direct-mapped cache (where replacement is deterministic).
func TestDirectMappedShadowQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Sets: 8, Ways: 1, LineBits: 6})
		if err != nil {
			return false
		}
		shadow := map[int]uint64{} // set -> resident line
		for i := 0; i < 500; i++ {
			a := addr.Address((rng.Intn(64) + 1) * 64)
			line := uint64(a) >> 6
			set := int(line % 8)
			wantHit := shadow[set] == line
			gotHit := c.Access(a)
			if wantHit != gotHit {
				return false
			}
			shadow[set] = line
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchy(t *testing.T) {
	h := DefaultHierarchy()
	a := addr.Address(0x20000)
	cyc, miss, _ := h.Access(a)
	if !miss || cyc != h.MemPenalty {
		t.Errorf("cold access: %d cycles, miss=%v", cyc, miss)
	}
	cyc, miss, _ = h.Access(a)
	if miss || cyc != h.L1Hit {
		t.Errorf("warm access: %d cycles, miss=%v", cyc, miss)
	}
	// Evict from L1 but not from the much larger L2: walk enough lines
	// mapping to the same L1 set.
	l1 := h.L1.Config()
	stride := addr.Address(l1.Sets << l1.LineBits)
	for i := 1; i <= l1.Ways; i++ {
		h.Access(a + stride*addr.Address(i))
	}
	if h.L1.Contains(a) {
		t.Fatal("line survived L1 conflict sweep")
	}
	cyc, miss, _ = h.Access(a)
	if miss || cyc != h.L2Hit {
		t.Errorf("L2 hit path: %d cycles, miss=%v; want %d,false", cyc, miss, h.L2Hit)
	}
	h.Flush()
	if _, miss, _ := h.Access(a); !miss {
		t.Error("access after Flush did not miss")
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := DefaultHierarchy()
	rng := rand.New(rand.NewSource(1))
	addrs := make([]addr.Address, 4096)
	for i := range addrs {
		addrs[i] = addr.Address(rng.Intn(1<<22) + 4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&4095])
	}
}

func TestTLBs(t *testing.T) {
	h := DefaultHierarchy()
	// Data TLB: first touch of a page misses, second hits.
	if _, miss := h.AccessData(0x10000); !miss {
		t.Error("cold DTLB access hit")
	}
	if _, miss := h.AccessData(0x10800); miss {
		t.Error("same-page DTLB access missed")
	}
	// Instruction TLB: only page changes probe.
	if _, miss := h.AccessInstr(0x20000); !miss {
		t.Error("cold ITLB access hit")
	}
	if _, miss := h.AccessInstr(0x20004); miss {
		t.Error("same-page instruction fetch probed ITLB")
	}
	if _, miss := h.AccessInstr(0x21000); !miss {
		t.Error("new-page instruction fetch did not miss cold ITLB")
	}
	// Returning to a mapped page hits.
	if _, miss := h.AccessInstr(0x20000); miss {
		t.Error("warm ITLB page missed")
	}
	h.Flush()
	if _, miss := h.AccessData(0x10000); !miss {
		t.Error("DTLB survived Flush")
	}
}

func TestNilTLBsAreNoOps(t *testing.T) {
	h := DefaultHierarchy()
	h.DTLB, h.ITLB = nil, nil
	if cyc, miss := h.AccessData(0x1000); cyc != 0 || miss {
		t.Error("nil DTLB charged")
	}
	if cyc, miss := h.AccessInstr(0x1000); cyc != 0 || miss {
		t.Error("nil ITLB charged")
	}
}

// The recency clock is 32 bits. Before it wraps, every set's stamps are
// renumbered by rank; without that, the access right after the wrap got
// the smallest stamp and the most-recently-used line was evicted first.
func TestClockWrapKeepsLRUOrder(t *testing.T) {
	c := mustNew(t, Config{Sets: 1, Ways: 2, LineBits: 6})
	a, b, d := addr.Address(0x0040), addr.Address(0x0080), addr.Address(0x00C0)
	c.Access(a)
	c.Access(b)
	c.touch(b, 1<<32-3) // the clock now reads 2^32-1, stamped on b
	if c.clock != 1<<32-1 {
		t.Fatalf("clock = %d, want 2^32-1", c.clock)
	}
	if !c.Access(a) { // the wrapping access: a becomes most recent
		t.Fatal("a missed")
	}
	if c.Access(d) {
		t.Fatal("d hit")
	}
	if !c.Contains(a) || c.Contains(b) {
		t.Errorf("after the wrap, d evicted a instead of b (a resident %v, b resident %v)",
			c.Contains(a), c.Contains(b))
	}
	if acc, misses := c.Stats(); acc != 1<<32+1 || misses != 3 {
		t.Errorf("stats = %d/%d, want 2^32+1 accesses, 3 misses", acc, misses)
	}
}

// Property: a cache whose clock starts just below the wrap makes every
// decision a cache starting at 0 makes — same hits, misses and resident
// lines over random geometries, accesses, strided runs, deferred hits
// and flushes — and its per-op and bulk paths stay bit-for-bit equal
// across the wrap.
func TestClockWrapMatchesUnwrappedQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := randomConfig(r)
		plain, perop, bulk := mustNew(t, cfg), mustNew(t, cfg), mustNew(t, cfg)
		start := uint32(1<<32 - 1 - r.Intn(600))
		perop.clock, bulk.clock = start, start
		addrOf := func() addr.Address { return addr.Address(0x1000 + r.Intn(1<<14)) }
		for step := 0; step < 120; step++ {
			switch r.Intn(10) {
			case 0:
				plain.Flush()
				perop.Flush()
				bulk.Flush()
			case 1, 2: // k deferred hits on a line just probed
				a, k := addrOf(), uint32(1+r.Intn(40))
				plain.Access(a)
				perop.Access(a)
				bulk.Access(a)
				plain.touch(a, k)
				for i := uint32(0); i < k; i++ {
					perop.Access(a)
				}
				bulk.touch(a, k)
			case 3, 4: // a strided run
				a := addrOf()
				stride := runStrides[r.Intn(len(runStrides))]
				n := 1 + r.Intn(60)
				want := plain.AccessRun(a, stride, n, nil)
				var got []int
				for i := 0; i < n; i++ {
					if !perop.Access(a + addr.Address(uint64(i)*uint64(stride))) {
						got = append(got, i)
					}
				}
				bulkGot := bulk.AccessRun(a, stride, n, nil)
				if !equalInts(got, want) || !equalInts(bulkGot, want) {
					t.Logf("step %d: run misses %v (per-op) %v (bulk), want %v", step, got, bulkGot, want)
					return false
				}
			default:
				a := addrOf()
				want := plain.Access(a)
				if perop.Access(a) != want || bulk.Access(a) != want {
					t.Logf("step %d: access %s disagrees with the unwrapped cache", step, a)
					return false
				}
			}
			if !stateEqual(t, perop, bulk) {
				return false
			}
			for i := range plain.tags {
				if plain.tags[i] != perop.tags[i] {
					t.Logf("step %d: slot %d holds %x, want %x", step, i, perop.tags[i], plain.tags[i])
					return false
				}
			}
		}
		return perop.clock < start // the sweep wrapped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
