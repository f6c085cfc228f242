package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The reference injectors: the write, rename, read and listing draws
// and the two composed-plan arbitration loops as they stood before
// every injector drew through one FaultStream, kept verbatim (renamed
// only) so the quickcheck below can hold the stream to them pick for
// pick, draw for draw and counter for counter.

type refFaultInjector struct {
	plan FaultPlan
	rng  *rand.Rand
	// renameRng is a second stream so the rename schedule is
	// independent of how many writes happened to match.
	renameRng *rand.Rand
	stats     FaultStats
}

func newRefFaultInjector(plan FaultPlan) *refFaultInjector {
	if plan.LatencyCycles == 0 {
		plan.LatencyCycles = 4 * SyncLatencyCycles
	}
	return &refFaultInjector{
		plan:      plan,
		rng:       rand.New(rand.NewSource(plan.Seed)),
		renameRng: rand.New(rand.NewSource(plan.Seed ^ 0x7265_6e61_6d65)), // "rename"
	}
}

func (fi *refFaultInjector) propose(path string) FaultKind {
	fi.stats.Writes++
	if !strings.HasPrefix(path, fi.plan.PathPrefix) {
		return FaultNone
	}
	idx := int(fi.stats.Matched)
	fi.stats.Matched++
	for _, pt := range fi.plan.Script {
		if pt.Write == idx {
			return pt.Kind
		}
	}
	if fi.plan.MaxFaults > 0 && fi.stats.Injected >= uint64(fi.plan.MaxFaults) {
		return FaultNone
	}
	r := fi.rng.Float64()
	for _, c := range []struct {
		p float64
		k FaultKind
	}{
		{fi.plan.PEIO, FaultEIO},
		{fi.plan.PENOSPC, FaultENOSPC},
		{fi.plan.PTorn, FaultTorn},
		{fi.plan.PLatency, FaultLatency},
		{fi.plan.PCrash, FaultCrash},
	} {
		if r < c.p {
			return c.k
		}
		r -= c.p
	}
	return FaultNone
}

func (fi *refFaultInjector) proposeRename(newPath string) FaultKind {
	fi.stats.Renames++
	if !strings.HasPrefix(newPath, fi.plan.PathPrefix) {
		return FaultNone
	}
	idx := int(fi.stats.RenamesMatched)
	fi.stats.RenamesMatched++
	for _, pt := range fi.plan.RenameScript {
		if pt.Write == idx {
			return pt.Kind
		}
	}
	if fi.plan.MaxFaults > 0 && fi.stats.Injected >= uint64(fi.plan.MaxFaults) {
		return FaultNone
	}
	r := fi.renameRng.Float64()
	for _, c := range []struct {
		p float64
		k FaultKind
	}{
		{fi.plan.PRenameBefore, FaultRenameBefore},
		{fi.plan.PRenameAfter, FaultRenameAfter},
		{fi.plan.PRenameCrash, FaultRenameCrash},
	} {
		if r < c.p {
			return c.k
		}
		r -= c.p
	}
	return FaultNone
}

func (fi *refFaultInjector) note(kind FaultKind) {
	switch kind {
	case FaultEIO:
		fi.stats.EIO++
	case FaultENOSPC:
		fi.stats.ENoSpace++
	case FaultTorn:
		fi.stats.Torn++
	case FaultLatency:
		fi.stats.Latency++
	case FaultCrash:
		fi.stats.Crashes++
	case FaultRenameBefore:
		fi.stats.RenameBefores++
	case FaultRenameAfter:
		fi.stats.RenameAfters++
	case FaultRenameCrash:
		fi.stats.RenameCrashes++
	default:
		return
	}
	fi.stats.Injected++
}

func (fi *refFaultInjector) cutShort(n int) int {
	if n <= 0 {
		return 0
	}
	return fi.rng.Intn(n) // [0, n-1]
}

func (fi *refFaultInjector) cutTorn(n int) int {
	if n < 2 {
		return 0
	}
	return 1 + fi.rng.Intn(n-1) // [1, n-1]
}

// refArbitrateWrite is SysWrite's arbitration loop.
func refArbitrateWrite(injectors []*refFaultInjector, path string) (FaultKind, *refFaultInjector) {
	kind, winner := FaultNone, (*refFaultInjector)(nil)
	for _, fi := range injectors {
		if pk := fi.propose(path); pk != FaultNone && kind == FaultNone {
			kind, winner = pk, fi
		}
	}
	if winner != nil {
		winner.note(kind)
	}
	return kind, winner
}

// refArbitrateRename is SysRename's arbitration loop.
func refArbitrateRename(injectors []*refFaultInjector, newPath string) (FaultKind, *refFaultInjector) {
	kind, winner := FaultNone, (*refFaultInjector)(nil)
	for _, fi := range injectors {
		if pk := fi.proposeRename(newPath); pk != FaultNone && kind == FaultNone {
			kind, winner = pk, fi
		}
	}
	if winner != nil {
		winner.note(kind)
	}
	return kind, winner
}

type refReadFaultInjector struct {
	plan  ReadFaultPlan
	rng   *rand.Rand
	stats ReadFaultStats
}

func (ri *refReadFaultInjector) decide(path string) bool {
	ri.stats.Reads++
	if !strings.HasPrefix(path, ri.plan.PathPrefix) {
		return false
	}
	idx := int(ri.stats.Matched)
	ri.stats.Matched++
	for _, w := range ri.plan.Script {
		if w == idx {
			ri.stats.EIO++
			return true
		}
	}
	if ri.plan.MaxFaults > 0 && ri.stats.EIO >= uint64(ri.plan.MaxFaults) {
		return false
	}
	if ri.rng.Float64() < ri.plan.PEIO {
		ri.stats.EIO++
		return true
	}
	return false
}

type refListFaultInjector struct {
	plan  ListFaultPlan
	rng   *rand.Rand
	stats ListFaultStats
}

func (li *refListFaultInjector) decide(path string) (drop, phantom bool) {
	li.stats.Entries++
	if !strings.HasPrefix(path, li.plan.PathPrefix) {
		return false, false
	}
	idx := int(li.stats.Matched)
	li.stats.Matched++
	for _, w := range li.plan.DropScript {
		if w == idx {
			li.stats.Dropped++
			li.stats.DroppedPaths = append(li.stats.DroppedPaths, path)
			return true, false
		}
	}
	for _, w := range li.plan.PhantomScript {
		if w == idx {
			li.stats.Phantoms++
			li.stats.PhantomPaths = append(li.stats.PhantomPaths, path)
			return false, true
		}
	}
	if li.plan.MaxFaults > 0 && li.stats.Dropped+li.stats.Phantoms >= uint64(li.plan.MaxFaults) {
		return false, false
	}
	r := li.rng.Float64()
	if r < li.plan.PDrop {
		li.stats.Dropped++
		li.stats.DroppedPaths = append(li.stats.DroppedPaths, path)
		return true, false
	}
	r -= li.plan.PDrop
	if r < li.plan.PPhantom {
		li.stats.Phantoms++
		li.stats.PhantomPaths = append(li.stats.PhantomPaths, path)
		return false, true
	}
	return false, false
}

// streamPaths are the paths a random schedule operates on; the plan
// prefixes below match some of them and miss the rest.
var (
	streamPaths    = []string{"var/lib/a", "var/fleet/b", "tmp/c", "d/map.0", "d/map.1.tmp"}
	streamPrefixes = []string{"", "var/", "var/lib/", "d/", "tmp/c", "nowhere/"}
)

// randProb is zero, certain, or uniform, each often.
func randProb(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 0.4 * rng.Float64()
	}
}

// randCap is unlimited (zero or negative) or a small cap.
func randCap(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return -1
	default:
		return 1 + rng.Intn(4)
	}
}

// randIndices draws script indices with repeats, some out of reach.
func randIndices(rng *rand.Rand) []int {
	out := make([]int, rng.Intn(5))
	for i := range out {
		out[i] = rng.Intn(12) - 1
	}
	return out
}

func randFaultPoints(rng *rand.Rand) []FaultPoint {
	idx := randIndices(rng)
	pts := make([]FaultPoint, len(idx))
	for i, at := range idx {
		pts[i] = FaultPoint{Write: at, Kind: FaultKind(rng.Intn(int(FaultRenameCrash) + 1))}
	}
	return pts
}

func randFaultPlan(rng *rand.Rand) FaultPlan {
	return FaultPlan{
		Seed:       rng.Int63n(1000) - 500,
		PathPrefix: streamPrefixes[rng.Intn(len(streamPrefixes))],
		PEIO:       randProb(rng), PENOSPC: randProb(rng), PTorn: randProb(rng),
		PLatency: randProb(rng), PCrash: randProb(rng),
		MaxFaults:     randCap(rng),
		Script:        randFaultPoints(rng),
		PRenameBefore: randProb(rng), PRenameAfter: randProb(rng), PRenameCrash: randProb(rng),
		RenameScript: randFaultPoints(rng),
	}
}

// checkStreamAgainstReference runs one random schedule through the
// stream-based injectors and the reference ones side by side: composed
// write plans, a read plan and a listing plan under a random
// interleaving of writes, renames, reads and listed entries. It
// compares every pick and winner, every follow-up cut and, after each
// operation, every stats struct.
func checkStreamAgainstReference(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	plans := make([]FaultPlan, 1+rng.Intn(3))
	for i := range plans {
		plans[i] = randFaultPlan(rng)
	}
	rplan := ReadFaultPlan{
		Seed:       rng.Int63n(1000),
		PathPrefix: streamPrefixes[rng.Intn(len(streamPrefixes))],
		PEIO:       randProb(rng),
		MaxFaults:  randCap(rng),
		Script:     randIndices(rng),
	}
	lplan := ListFaultPlan{
		Seed:          rng.Int63n(1000),
		PathPrefix:    streamPrefixes[rng.Intn(len(streamPrefixes))],
		PDrop:         randProb(rng),
		PPhantom:      randProb(rng),
		MaxFaults:     randCap(rng),
		DropScript:    randIndices(rng),
		PhantomScript: randIndices(rng),
	}

	var got []*faultInjector
	var want []*refFaultInjector
	for _, p := range plans {
		got = append(got, newFaultInjector(p))
		want = append(want, newRefFaultInjector(p))
	}
	gotRead := newReadFaultInjector(rplan)
	wantRead := &refReadFaultInjector{plan: rplan, rng: rand.New(rand.NewSource(rplan.Seed))}
	gotList := newListFaultInjector(lplan)
	wantList := &refListFaultInjector{plan: lplan, rng: rand.New(rand.NewSource(lplan.Seed))}

	winnerIdx := func(w any) int {
		for i := range got {
			if w == any(got[i]) || w == any(want[i]) {
				return i
			}
		}
		return -1
	}
	ops := 50 + rng.Intn(200)
	for op := 0; op < ops; op++ {
		path := streamPaths[rng.Intn(len(streamPaths))]
		switch rng.Intn(4) {
		case 0:
			n := rng.Intn(40)
			gk, gw := arbitrate(got, path, false)
			wk, ww := refArbitrateWrite(want, path)
			gi, wi := -1, -1
			if gw != nil {
				gi = winnerIdx(gw)
			}
			if ww != nil {
				wi = winnerIdx(ww)
			}
			if gk != wk || gi != wi {
				return fmt.Errorf("op %d write %q: picked %v from plan %d, reference %v from plan %d", op, path, gk, gi, wk, wi)
			}
			var gcut, wcut int
			switch gk {
			case FaultENOSPC, FaultCrash:
				gcut, wcut = gw.cutShort(n), ww.cutShort(n)
			case FaultTorn:
				gcut, wcut = gw.cutTorn(n), ww.cutTorn(n)
			}
			if gcut != wcut {
				return fmt.Errorf("op %d write %q (%v, %d bytes): cut %d, reference %d", op, path, gk, n, gcut, wcut)
			}
		case 1:
			gk, gw := arbitrate(got, path, true)
			wk, ww := refArbitrateRename(want, path)
			gi, wi := -1, -1
			if gw != nil {
				gi = winnerIdx(gw)
			}
			if ww != nil {
				wi = winnerIdx(ww)
			}
			if gk != wk || gi != wi {
				return fmt.Errorf("op %d rename to %q: picked %v from plan %d, reference %v from plan %d", op, path, gk, gi, wk, wi)
			}
		case 2:
			if g, w := gotRead.decide(path), wantRead.decide(path); g != w {
				return fmt.Errorf("op %d read %q: fault %v, reference %v", op, path, g, w)
			}
		default:
			gd, gp := gotList.decide(path)
			wd, wp := wantList.decide(path)
			if gd != wd || gp != wp {
				return fmt.Errorf("op %d list %q: drop/phantom %v/%v, reference %v/%v", op, path, gd, gp, wd, wp)
			}
		}
		for i := range got {
			if got[i].stats != want[i].stats {
				return fmt.Errorf("op %d plan %d: stats %+v, reference %+v", op, i, got[i].stats, want[i].stats)
			}
		}
		if gotRead.stats != wantRead.stats {
			return fmt.Errorf("op %d: read stats %+v, reference %+v", op, gotRead.stats, wantRead.stats)
		}
		if !reflect.DeepEqual(gotList.stats, wantList.stats) {
			return fmt.Errorf("op %d: list stats %+v, reference %+v", op, gotList.stats, wantList.stats)
		}
	}
	return nil
}

// TestFaultStreamMatchesReferenceQuick holds the write, rename, read
// and listing injectors, and the composed-plan arbitration, to the
// reference copies above over random plans and operation sequences.
// `-args -quickchecks=N` widens it.
func TestFaultStreamMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		if err := checkStreamAgainstReference(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A pick allocates nothing: scripted, capped, drawn and skipped
// operations alike.
func TestFaultStreamNextAllocatesNothing(t *testing.T) {
	s := NewFaultStream(5, 0, int(FaultEIO), []float64{0.1, 0.1, 0.1, 0.1, 0.1},
		[]StreamPoint{{At: 3, Kind: int(FaultCrash)}})
	fi := newFaultInjector(FaultPlan{Seed: 9, PathPrefix: "var/", PTorn: 0.5, MaxFaults: 1 << 30})
	injectors := []*faultInjector{fi}
	var delivered uint64
	if n := testing.AllocsPerRun(1000, func() {
		if s.Next(delivered) != 0 {
			delivered++
		}
		s.Skip()
		arbitrate(injectors, "var/x", false)
		arbitrate(injectors, "var/x", true)
	}); n != 0 {
		t.Fatalf("%.1f allocations per pick, want 0", n)
	}
}
