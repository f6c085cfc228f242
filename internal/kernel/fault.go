package kernel

import (
	"errors"
	"math/rand"
	"strings"
)

// Fault injection: a deterministic, seeded model of the ways a real
// disk write path fails under a hostile system — I/O errors, a full
// filesystem, torn (short) writes, latency spikes, and crashes that
// kill the writing process mid-write. The profiling pipeline's claim
// is that it degrades, not lies, under exactly these failures; the
// injector makes that claim testable end to end (see
// internal/harness/chaos.go).
//
// Determinism: every injector decides through one FaultStream, whose
// RNG is consumed only for operations the plan matches, so a fixed
// (machine seed, plan) reproduces the identical fault schedule run
// after run.

// Injected error sentinels. They model -EIO, -ENOSPC, and the writer
// dying mid-syscall; writers branch on them with errors.Is.
var (
	ErrIO      = errors.New("kernel: I/O error (injected)")
	ErrNoSpace = errors.New("kernel: no space left on device (injected)")
	ErrCrashed = errors.New("kernel: process killed mid-write")
)

// FaultKind selects a failure mode for one write.
type FaultKind int

// Failure modes.
const (
	// FaultNone lets the write through untouched.
	FaultNone FaultKind = iota
	// FaultEIO fails the write with nothing reaching the disk.
	FaultEIO
	// FaultENOSPC writes a strict prefix, then fails (device full).
	FaultENOSPC
	// FaultTorn writes a strict prefix and reports an I/O error — the
	// classic torn write a crash-consistent format must survive.
	FaultTorn
	// FaultLatency completes the write but stalls the machine for the
	// plan's LatencyCycles (a degraded disk, not a lossy one).
	FaultLatency
	// FaultCrash writes a prefix and kills the writing process; every
	// later write by that process fails with ErrCrashed.
	FaultCrash
	// FaultRenameBefore fails a SysRename before it applies: the
	// destination never appears and the temp file survives as an orphan
	// for the recovery pass to adopt or quarantine.
	FaultRenameBefore
	// FaultRenameAfter applies the rename, then reports an I/O error —
	// the ambiguous-outcome commit a recovery protocol must tolerate:
	// the caller believes the commit failed although it is durable.
	FaultRenameAfter
	// FaultRenameCrash kills the renaming process before the rename
	// applies, leaving the orphan temp file as the only durable
	// evidence of the attempted commit.
	FaultRenameCrash
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultEIO:
		return "EIO"
	case FaultENOSPC:
		return "ENOSPC"
	case FaultTorn:
		return "torn"
	case FaultLatency:
		return "latency"
	case FaultCrash:
		return "crash"
	case FaultRenameBefore:
		return "rename-before"
	case FaultRenameAfter:
		return "rename-after"
	case FaultRenameCrash:
		return "rename-crash"
	default:
		return "none"
	}
}

// FaultPoint scripts an exact fault: the Nth prefix-matched write (0
// based) fails with Kind, regardless of the probabilistic schedule.
type FaultPoint struct {
	Write int
	Kind  FaultKind
}

// FaultPlan is a deterministic fault schedule.
type FaultPlan struct {
	// Seed drives the injector's private RNG.
	Seed int64
	// PathPrefix restricts injection to writes under this path ("" =
	// every write).
	PathPrefix string

	// Per-write probabilities, evaluated in this order; their sum
	// should stay <= 1.
	PEIO, PENOSPC, PTorn, PLatency, PCrash float64

	// LatencyCycles is the stall per FaultLatency (default: 4x the
	// synchronous-commit latency).
	LatencyCycles uint64
	// MaxFaults caps probabilistic injections (0 = unlimited); scripted
	// points always fire.
	MaxFaults int
	// Script forces exact faults at exact matched-write indices.
	Script []FaultPoint

	// Per-rename probabilities, evaluated like the write probabilities
	// but against SysRename calls. Renames draw from a second RNG stream
	// (derived from Seed), so arming rename faults never perturbs an
	// existing write-fault schedule.
	PRenameBefore, PRenameAfter, PRenameCrash float64
	// RenameScript forces exact rename faults at exact matched-rename
	// indices (0 based). Only the rename kinds are meaningful here.
	RenameScript []FaultPoint
}

// FaultStats counts injector activity.
type FaultStats struct {
	// Writes is every write seen; Matched is those under PathPrefix.
	Writes, Matched uint64
	// Renames is every rename seen; RenamesMatched is those whose
	// destination falls under PathPrefix.
	Renames, RenamesMatched uint64
	// Per-kind injection counts.
	EIO, ENoSpace, Torn, Latency, Crashes uint64
	// Per-rename-kind injection counts.
	RenameBefores, RenameAfters, RenameCrashes uint64
	// Injected is the total number of faults delivered.
	Injected uint64
}

// Destructive reports how many injected faults can lose or damage
// persisted data (everything except latency spikes). Every rename
// fault counts: even fail-after leaves the committer believing a
// durable commit failed, which forces deferral/duplication downstream.
func (s FaultStats) Destructive() uint64 {
	return s.EIO + s.ENoSpace + s.Torn + s.Crashes +
		s.RenameBefores + s.RenameAfters + s.RenameCrashes
}

// add merges two counter sets (used when several injectors are armed).
func (s FaultStats) add(o FaultStats) FaultStats {
	s.Writes += o.Writes
	s.Matched += o.Matched
	s.Renames += o.Renames
	s.RenamesMatched += o.RenamesMatched
	s.EIO += o.EIO
	s.ENoSpace += o.ENoSpace
	s.Torn += o.Torn
	s.Latency += o.Latency
	s.Crashes += o.Crashes
	s.RenameBefores += o.RenameBefores
	s.RenameAfters += o.RenameAfters
	s.RenameCrashes += o.RenameCrashes
	s.Injected += o.Injected
	return s
}

// FaultStream is the seeded fault draw every injector makes: the
// write, rename, read and listing injectors here and the network in
// internal/fleet. It holds a private RNG, the index the next matched
// operation gets, the plan's scripted points and its kinds'
// probabilities in draw order, and decides for one operation at a time
// whether it fails and how. Kinds are plain ints: 0 is none, probs[i]
// yields first+i, and a scripted point yields its own kind.
type FaultStream struct {
	rng *rand.Rand
	// next is the index the next matched operation gets.
	next   int
	script []StreamPoint
	probs  []float64
	first  int
	// max caps delivered faults (0 = unlimited).
	max uint64
}

// StreamPoint scripts an exact fault: the matched operation with index
// At (0 based) gets Kind.
type StreamPoint struct {
	At, Kind int
}

// NewFaultStream arms a stream over a plan's scripted points, each
// plan's script normalised into StreamPoints in the order it lists
// them: where two points share an index, the first listed wins.
func NewFaultStream(seed int64, maxFaults, first int, probs []float64, script []StreamPoint) FaultStream {
	return FaultStream{
		rng:    rand.New(rand.NewSource(seed)),
		script: script,
		probs:  probs,
		first:  first,
		max:    uint64(max(maxFaults, 0)),
	}
}

// Next picks the fault for the next matched operation, given how many
// faults the stream's plan has delivered so far. A scripted point at
// the operation's index fires even past the cap and draws nothing;
// once the plan has delivered its cap nothing fires and nothing is
// drawn; otherwise one uniform draw walks the kinds in order. Every
// injected fault is picked here.
func (s *FaultStream) Next(delivered uint64) int {
	idx := s.next
	s.next++
	for _, pt := range s.script {
		if pt.At == idx {
			return pt.Kind
		}
	}
	if s.max > 0 && delivered >= s.max {
		return 0
	}
	r := s.rng.Float64()
	for i, p := range s.probs {
		if r < p {
			return s.first + i
		}
		r -= p
	}
	return 0
}

// Skip gives the next operation its index without a pick: a network
// send lost to a partition still counts as a send.
func (s *FaultStream) Skip() { s.next++ }

// Int63n is a follow-up draw from the stream, made after a pick to
// size what the picked fault does.
func (s *FaultStream) Int63n(n int64) int64 { return s.rng.Int63n(n) }

type faultInjector struct {
	plan FaultPlan
	// write and rename are the plan's two streams; rename draws from a
	// seed of its own, so its schedule is independent of how many
	// writes happened to match.
	write, rename FaultStream
	stats         FaultStats
}

func newFaultInjector(plan FaultPlan) *faultInjector {
	if plan.LatencyCycles == 0 {
		plan.LatencyCycles = 4 * SyncLatencyCycles
	}
	return &faultInjector{
		plan: plan,
		write: NewFaultStream(plan.Seed, plan.MaxFaults, int(FaultEIO),
			[]float64{plan.PEIO, plan.PENOSPC, plan.PTorn, plan.PLatency, plan.PCrash}, faultPoints(plan.Script)),
		rename: NewFaultStream(plan.Seed^0x7265_6e61_6d65, plan.MaxFaults, int(FaultRenameBefore), // "rename"
			[]float64{plan.PRenameBefore, plan.PRenameAfter, plan.PRenameCrash}, faultPoints(plan.RenameScript)),
	}
}

func faultPoints(script []FaultPoint) []StreamPoint {
	pts := make([]StreamPoint, len(script))
	for i, pt := range script {
		pts[i] = StreamPoint{At: pt.Write, Kind: int(pt.Kind)}
	}
	return pts
}

// SetFaultInjector installs (or, with a zero-probability empty plan,
// effectively clears) the write-path fault schedule, replacing any
// previously armed injectors.
func (k *Kernel) SetFaultInjector(plan FaultPlan) {
	k.injectors = []*faultInjector{newFaultInjector(plan)}
}

// SetFaultInjectors arms several fault schedules at once (a composed
// chaos run). Every injector sees every write/rename and advances its
// own deterministic schedule; when more than one proposes a fault for
// the same operation, the first armed plan wins and only the winner's
// counters record an injection.
func (k *Kernel) SetFaultInjectors(plans ...FaultPlan) {
	k.injectors = k.injectors[:0]
	for _, plan := range plans {
		k.injectors = append(k.injectors, newFaultInjector(plan))
	}
}

// FaultStats returns the injectors' counters summed (zero value if no
// injector is installed).
func (k *Kernel) FaultStats() FaultStats {
	var s FaultStats
	for _, fi := range k.injectors {
		s = s.add(fi.stats)
	}
	return s
}

// arbitrate decides one write (or, with rename set, one SysRename
// matched against its destination) under every armed plan: each plan
// advances its stream, the first non-none proposal wins, and only the
// winner counts it, so composed schedules never count faults they did
// not deliver.
func arbitrate(injectors []*faultInjector, path string, rename bool) (FaultKind, *faultInjector) {
	kind, winner := FaultNone, (*faultInjector)(nil)
	for _, fi := range injectors {
		if pk := fi.propose(path, rename); pk != FaultNone && winner == nil {
			kind, winner = pk, fi
		}
	}
	if winner != nil {
		winner.note(kind)
	}
	return kind, winner
}

// propose picks the fault this injector wants for one operation,
// without recording an injection. A plan's cap counts every fault it
// delivered on either stream.
func (fi *faultInjector) propose(path string, rename bool) FaultKind {
	s, seen, matched := &fi.write, &fi.stats.Writes, &fi.stats.Matched
	if rename {
		s, seen, matched = &fi.rename, &fi.stats.Renames, &fi.stats.RenamesMatched
	}
	*seen++
	if !strings.HasPrefix(path, fi.plan.PathPrefix) {
		return FaultNone
	}
	*matched++
	return FaultKind(s.Next(fi.stats.Injected))
}

func (fi *faultInjector) note(kind FaultKind) {
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

// cutShort picks how many bytes of an n-byte payload land on disk for
// a failing write: always a strict prefix, so a "failed" write can
// never silently equal a successful one (that would let a retry
// double-count).
func (fi *faultInjector) cutShort(n int) int {
	if n <= 0 {
		return 0
	}
	return fi.write.rng.Intn(n) // [0, n-1]
}

// cutTorn is cutShort but guarantees at least one byte lands when
// possible, producing a genuinely torn (not merely absent) record.
func (fi *faultInjector) cutTorn(n int) int {
	if n < 2 {
		return 0
	}
	return 1 + fi.write.rng.Intn(n-1) // [1, n-1]
}

// Read-path fault injection. The write injector above attacks data on
// its way to the disk; this one attacks it on the way back — the EIO a
// degraded platter delivers when the offline tools (vipreport, the
// integrity assembly) read profile artifacts back. The salvage readers'
// contract is the same as on the write side: an unreadable file must
// surface as loud degradation, never as silent absence that could let a
// sample misattribute through a missing epoch.

// ReadFaultPlan is a deterministic read-fault schedule for a Disk.
type ReadFaultPlan struct {
	// Seed drives the injector's private RNG.
	Seed int64
	// PathPrefix restricts injection to reads under this path ("" =
	// every read).
	PathPrefix string
	// PEIO is the per-read probability of an injected EIO.
	PEIO float64
	// MaxFaults caps injections (0 = unlimited).
	MaxFaults int
	// Script forces EIO at exact matched-read indices (0 based),
	// regardless of the probabilistic schedule.
	Script []int
}

// ReadFaultStats counts read-injector activity.
type ReadFaultStats struct {
	// Reads is every read seen; Matched is those under PathPrefix.
	Reads, Matched uint64
	// EIO is the number of injected read failures.
	EIO uint64
}

type readFaultInjector struct {
	prefix string
	stream FaultStream
	stats  ReadFaultStats
}

func newReadFaultInjector(plan ReadFaultPlan) *readFaultInjector {
	return &readFaultInjector{
		prefix: plan.PathPrefix,
		stream: NewFaultStream(plan.Seed, plan.MaxFaults, 1, []float64{plan.PEIO}, scriptAt(nil, plan.Script, 1)),
	}
}

// scriptAt appends a point of kind at each listed index.
func scriptAt(pts []StreamPoint, at []int, kind int) []StreamPoint {
	for _, i := range at {
		pts = append(pts, StreamPoint{At: i, Kind: kind})
	}
	return pts
}

// decide reports whether this read fails. Only prefix-matched reads
// reach the stream, so a fixed plan reproduces the identical fault
// schedule against the identical read sequence.
func (ri *readFaultInjector) decide(path string) bool {
	ri.stats.Reads++
	if !strings.HasPrefix(path, ri.prefix) {
		return false
	}
	ri.stats.Matched++
	if ri.stream.Next(ri.stats.EIO) == 0 {
		return false
	}
	ri.stats.EIO++
	return true
}

// Directory-damage fault injection. Disk.List is the third trusted
// surface after writes and reads: the offline chain reader discovers
// epoch map files by listing, so a listing that silently omits a file
// (a lost dirent) or resurrects a stale one (a phantom dirent after an
// unsynced rename) can hide committed epochs or re-expose quarantined
// temp files. The chain reader's contract under this injector is the
// same loud-degradation rule as everywhere else: a damaged listing may
// poison epochs and mark the run degraded, but must never let a sample
// misattribute through a hidden file.

// ListFaultPlan is a deterministic directory-damage schedule.
type ListFaultPlan struct {
	// Seed drives the injector's private RNG.
	Seed int64
	// PathPrefix restricts injection to listed entries under this path
	// ("" = every entry).
	PathPrefix string
	// PDrop is the per-entry probability that a listing omits the
	// entry (lost dirent).
	PDrop float64
	// PPhantom is the per-entry probability that a listing grows a
	// phantom sibling: the entry's path with ".tmp" appended, provided
	// no such file exists (a stale dirent for an already-renamed temp).
	PPhantom float64
	// MaxFaults caps injections (0 = unlimited).
	MaxFaults int
	// DropScript / PhantomScript force faults at exact matched-entry
	// indices (0 based), regardless of the probabilistic schedule.
	DropScript, PhantomScript []int
}

// ListFaultStats counts directory-damage injector activity.
type ListFaultStats struct {
	// Entries is every listed entry seen; Matched is those under
	// PathPrefix.
	Entries, Matched uint64
	// Dropped / Phantoms count injected faults.
	Dropped, Phantoms uint64
	// DroppedPaths / PhantomPaths record exactly which entries were
	// damaged, so invariant checks can tell consequential damage (a
	// hidden map file) from inconsequential (a hidden stats file that
	// is read by direct path anyway).
	DroppedPaths, PhantomPaths []string
}

type listFaultInjector struct {
	prefix string
	stream FaultStream
	stats  ListFaultStats
}

// Listing-damage kinds, in draw order: at an index scripted both ways
// the drop wins.
const (
	listDrop = 1 + iota
	listPhantom
)

func newListFaultInjector(plan ListFaultPlan) *listFaultInjector {
	pts := scriptAt(scriptAt(nil, plan.DropScript, listDrop), plan.PhantomScript, listPhantom)
	return &listFaultInjector{
		prefix: plan.PathPrefix,
		stream: NewFaultStream(plan.Seed, plan.MaxFaults, listDrop, []float64{plan.PDrop, plan.PPhantom}, pts),
	}
}

// decide classifies one listed entry: dropped, phantom-sibling added,
// or passed through. Only prefix-matched entries reach the stream, so
// a fixed plan reproduces the identical damage schedule against the
// identical listing sequence.
func (li *listFaultInjector) decide(path string) (drop, phantom bool) {
	li.stats.Entries++
	if !strings.HasPrefix(path, li.prefix) {
		return false, false
	}
	li.stats.Matched++
	switch li.stream.Next(li.stats.Dropped + li.stats.Phantoms) {
	case listDrop:
		li.stats.Dropped++
		li.stats.DroppedPaths = append(li.stats.DroppedPaths, path)
		return true, false
	case listPhantom:
		li.stats.Phantoms++
		li.stats.PhantomPaths = append(li.stats.PhantomPaths, path)
		return false, true
	}
	return false, false
}
