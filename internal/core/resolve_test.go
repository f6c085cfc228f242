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

// refResolveDurable is ResolveDurable written as its own backward
// scan over a poisoned chain, kept as its reference: the scan stops at
// the first hit and refuses it below the poison ceiling.
func refResolveDurable(c *MapChain, epoch int, pc addr.Address) (entry MapEntry, searched int, ok bool) {
	if epoch < 0 || epoch >= len(c.maps) {
		return MapEntry{}, 0, false
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

// Property: under a random poison ceiling (none, or anywhere in or
// past the chain) ResolveDurable answers exactly as its backward-scan
// reference above — same entry, same search depth, same hit/miss — for
// arbitrary compile/move/sample interleavings, including boundary
// addresses, unmapped gaps, and out-of-range epochs.
func TestResolveDurableMatchesReferenceQuick(t *testing.T) {
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
			ge, gd, gok := chain.ResolveDurable(epoch, pc)
			we, wd, wok := refResolveDurable(chain, epoch, pc)
			if gok != wok || gd != wd || ge != we {
				t.Logf("ResolveDurable(%d, %d) under ceiling %d = %+v,%d,%v; reference %+v,%d,%v",
					epoch, pc, chain.poisonCeil, ge, gd, gok, we, wd, wok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Within one epoch, overlapping entries shadow as lookupEntry's binary
// search over ends makes them: with the narrow body nested in the wide
// one, [100,160) resolves to the wide body, the narrow body never
// wins, and the wide body's tail past the narrow end reads unresolved.
// Every probe is one map deep. These are the answers both the backward
// scan and the flattened index it replaced gave.
func TestResolveOverlapShadowing(t *testing.T) {
	chain := NewMapChain([][]MapEntry{{
		{Start: 100, Size: 100, Level: "base", Sig: "wide"},
		{Start: 140, Size: 20, Level: "opt", Sig: "narrow"},
	}})
	for pc := addr.Address(90); pc < 210; pc++ {
		e, d, ok := chain.Resolve(0, pc)
		want := pc >= 100 && pc < 160
		if ok != want || d != 1 || (ok && e.Sig != "wide") {
			t.Fatalf("pc %d: %+v,%d,%v; want wide=%v at depth 1", pc, e, d, ok, want)
		}
	}
}
