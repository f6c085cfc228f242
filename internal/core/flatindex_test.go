package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

// randomChain builds a map chain shaped like real agent output: a first
// epoch full of fresh compilations, then partial epochs mixing new
// bodies, GC moves onto previously used ranges, and the occasional
// epoch that writes nothing. A slice of the generated entry boundaries
// comes back too so queries can probe edges, not just interiors.
func randomChain(r *rand.Rand) (*MapChain, []addr.Address) {
	epochs := 1 + r.Intn(8)
	perEpoch := make([][]MapEntry, epochs)
	var edges []addr.Address
	// A small address pool forces reuse across epochs (GC motion).
	slot := func() addr.Address { return addr.Address(64 * (1 + r.Intn(40))) }
	for e := 0; e < epochs; e++ {
		if e > 0 && r.Intn(4) == 0 {
			continue // epoch wrote no map
		}
		n := r.Intn(6)
		if e == 0 {
			n = 3 + r.Intn(6)
		}
		for i := 0; i < n; i++ {
			start := slot()
			size := uint32(16 + r.Intn(112)) // spans can straddle slots: overlaps happen
			perEpoch[e] = append(perEpoch[e], MapEntry{
				Start: start,
				Size:  size,
				Level: "base",
				Sig:   "m", // identity is (Start,Size,epoch); sig is irrelevant here
			})
			edges = append(edges, start, start+addr.Address(size))
		}
	}
	return NewMapChain(perEpoch), edges
}

// refResolveDurable is ResolveDurable's own backward scan over a
// poisoned chain, as it stood before ResolveDurable resolved through
// the flat index; kept as its reference.
func refResolveDurable(c *MapChain, epoch int, pc addr.Address) (entry MapEntry, searched int, ok bool) {
	if epoch < 0 || epoch >= len(c.maps) {
		return MapEntry{}, 0, false
	}
	if c.poisonCeil < 0 {
		return c.Resolve(epoch, pc)
	}
	for e := epoch; e >= 0; e-- {
		searched++
		if entry, found := lookupEntry(c.maps[e], pc); found {
			if e >= c.poisonCeil {
				return entry, searched, true
			}
			return MapEntry{}, searched, false
		}
	}
	return MapEntry{}, searched, false
}

// Property: Resolve through the flattened index (and its front cache)
// is indistinguishable from the paper's literal backward scan — same
// entry, same search depth, same hit/miss — for arbitrary
// compile/move/sample interleavings, including boundary addresses,
// unmapped gaps, and out-of-range epochs. Under a random poison
// ceiling (none, or anywhere in or past the chain) ResolveDurable
// answers exactly as its backward-scan reference above.
func TestResolveMatchesScanQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		chain, edges := randomChain(r)
		chain.poisonCeil = r.Intn(chain.Epochs()+2) - 1
		for q := 0; q < 200; q++ {
			var pc addr.Address
			switch r.Intn(4) {
			case 0: // exact boundary or just off it
				pc = edges[r.Intn(len(edges))]
				if r.Intn(2) == 0 && pc > 0 {
					pc--
				}
			case 1: // far outside anything mapped
				pc = addr.Address(r.Uint64())
			default:
				pc = addr.Address(r.Intn(4096))
			}
			epoch := r.Intn(chain.Epochs()+3) - 1 // includes -1 and beyond-chain
			// Repeat some queries back-to-back so cache hits are exercised.
			reps := 1 + r.Intn(2)
			for ; reps > 0; reps-- {
				ge, gd, gok := chain.Resolve(epoch, pc)
				we, wd, wok := chain.ResolveScan(epoch, pc)
				if gok != wok || gd != wd || ge != we {
					t.Logf("Resolve(%d, %d) = %+v,%d,%v; scan %+v,%d,%v",
						epoch, pc, ge, gd, gok, we, wd, wok)
					return false
				}
				ge, gd, gok = chain.ResolveDurable(epoch, pc)
				we, wd, wok = refResolveDurable(chain, epoch, pc)
				if gok != wok || gd != wd || ge != we {
					t.Logf("ResolveDurable(%d, %d) under ceiling %d = %+v,%d,%v; reference %+v,%d,%v",
						epoch, pc, chain.poisonCeil, ge, gd, gok, we, wd, wok)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The front cache must answer page-local repeats without consulting the
// index, and eviction must not change answers once entries cycle out.
func TestResolveCacheHitsAndEviction(t *testing.T) {
	perEpoch := [][]MapEntry{{
		{Start: 0x1000, Size: 0x100, Level: "base", Sig: "A"},
	}}
	chain := NewMapChain(perEpoch)
	if _, _, ok := chain.Resolve(0, 0x1080); !ok {
		t.Fatal("warm-up query failed")
	}
	h0, m0 := chain.idx.cache.hits, chain.idx.cache.misses
	for i := 0; i < 50; i++ {
		if e, d, ok := chain.Resolve(0, 0x1000+addr.Address(i)); !ok || d != 1 || e.Sig != "A" {
			t.Fatalf("repeat query %d: %+v %d %v", i, e, d, ok)
		}
	}
	if chain.idx.cache.hits != h0+50 || chain.idx.cache.misses != m0 {
		t.Errorf("page-local repeats not cached: hits %d->%d misses %d->%d",
			h0, chain.idx.cache.hits, m0, chain.idx.cache.misses)
	}
	// Thrash far past capacity; answers must survive eviction.
	for i := 0; i < 4*resolveCacheSize; i++ {
		pc := addr.Address(0x100000 + i*0x1000) // distinct pages, all unmapped
		if _, _, ok := chain.Resolve(0, pc); ok {
			t.Fatalf("unmapped pc %x resolved", pc)
		}
	}
	if e, d, ok := chain.Resolve(0, 0x10ff); !ok || d != 1 || e.Sig != "A" {
		t.Errorf("after eviction: %+v %d %v", e, d, ok)
	}
	if len(chain.idx.cache.vals) > resolveCacheSize {
		t.Errorf("cache grew past capacity: %d", len(chain.idx.cache.vals))
	}
}

// Within-epoch overlaps must shadow identically in both resolvers (the
// index probes each epoch with the same lookupEntry the scan uses).
func TestResolveOverlapShadowing(t *testing.T) {
	chain := NewMapChain([][]MapEntry{{
		{Start: 100, Size: 100, Level: "base", Sig: "wide"},
		{Start: 140, Size: 20, Level: "opt", Sig: "narrow"},
	}})
	for pc := addr.Address(90); pc < 210; pc++ {
		ge, gd, gok := chain.Resolve(0, pc)
		we, wd, wok := chain.ResolveScan(0, pc)
		if gok != wok || gd != wd || ge != we {
			t.Fatalf("pc %d: index %+v,%d,%v vs scan %+v,%d,%v", pc, ge, gd, gok, we, wd, wok)
		}
	}
}
