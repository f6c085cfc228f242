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
	cyc, miss := h.Access(a)
	if !miss || cyc != h.MemPenalty {
		t.Errorf("cold access: %d cycles, miss=%v", cyc, miss)
	}
	cyc, miss = h.Access(a)
	if miss || cyc != 0 {
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
	cyc, miss = h.Access(a)
	if miss || cyc != h.L2Hit {
		t.Errorf("L2 hit path: %d cycles, miss=%v; want %d,false", cyc, miss, h.L2Hit)
	}
	h.L1.Flush()
	h.L2.Flush()
	if _, miss := h.Access(a); !miss {
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
	h.DTLB.Flush()
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

// A deferred touch counts every access it stands for and leaves its
// line in front of the set, moving it there if another line went in
// front meanwhile, as the stamp model's touch did; a line flushed since
// the deferral is only counted.
func TestTouchCountsAndMovesToFront(t *testing.T) {
	c := mustNew(t, Config{Sets: 1, Ways: 2, LineBits: 6})
	a, b, d := addr.Address(0x0040), addr.Address(0x0080), addr.Address(0x00C0)
	c.Access(a)
	c.Access(b)
	c.touch(a, 3)
	if acc, misses := c.Stats(); acc != 5 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 5 accesses, 2 misses", acc, misses)
	}
	c.Access(d) // evicts b, now the least recently used
	if !c.Contains(a) || c.Contains(b) {
		t.Errorf("after touching a, d evicted a instead of b (a resident %v, b resident %v)",
			c.Contains(a), c.Contains(b))
	}
	c.Flush()
	c.touch(a, 2)
	if acc, misses := c.Stats(); acc != 8 || misses != 3 || c.Contains(a) {
		t.Errorf("touch after a flush: stats %d/%d, a resident %v; want 8/3, not resident",
			acc, misses, c.Contains(a))
	}
}
