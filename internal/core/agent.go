package core

import (
	"fmt"
	"sort"

	"viprof/internal/addr"
	"viprof/internal/image"
	"viprof/internal/jvm/jit"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// VMAgent is the paper's VM agent: "a library with several hooks in the
// VM's code" (§3). It logs every (re)compilation into a buffer, flags
// GC-moved method bodies, and at each epoch boundary — just before a
// collection — writes a *partial* code map to disk covering methods
// compiled since the last write plus methods moved by the previous
// collection.
//
// The agent is a user library (libviprof.so) loaded into the VM
// process; its hook costs execute at the library's symbols, so the
// agent's own overhead is visible in profiles and in Figure 2's
// VIProf-vs-OProfile deltas.
type VMAgent struct {
	m    *kernel.Machine
	proc *kernel.Process

	lib     *image.Image
	libBase addr.Address

	pending []*jit.CodeBody                // compiled since the last map write
	moved   map[*jit.CodeBody]addr.Address // flagged by GC since the last write

	// FullMaps, when true, writes every known body into every epoch map
	// instead of the paper's partial-write scheme. It exists for the
	// ablation benchmark quantifying why the paper chose partial maps.
	FullMaps bool
	// EagerMoveLog, when true, fully logs each code move from inside
	// the collector (record formatting + a write syscall per move)
	// instead of the paper's cheap flag — the design §3 rejects because
	// "any calls to the outside of [the GC's] code space will result in
	// a significant performance hit". Ablation only.
	EagerMoveLog bool
	known        []*jit.CodeBody // all live bodies (FullMaps mode)

	// deferred holds a failed epoch's entries: instead of vanishing,
	// they are prepended to the next map write. Their per-entry Epoch
	// tags mean the chain reader re-slots them into their true epoch,
	// so a mid-run write failure costs nothing once a later write
	// lands.
	deferred []MapEntry
	// oracle records, per epoch, exactly what the agent intended to
	// persist — captured before each write attempt, so it is the
	// fault-free persistence reference for this very execution (a
	// separate fault-free run diverges in timing, because profiling
	// overhead is endogenous). The chaos harness checks resolution
	// against it.
	oracle [][]MapEntry

	stats AgentStats
}

// AgentStats counts agent activity.
type AgentStats struct {
	Compiles    int
	Moves       int
	MapsWritten int
	Entries     int
	MapBytes    uint64
	// MapWriteErrors counts failed epoch-map writes; DeferredEntries is
	// how many entries those failures carried into later maps.
	MapWriteErrors  int
	DeferredEntries int
	// JournalErrors counts failed commit-journal appends. The committed
	// map itself is durable (the rename succeeded), so nothing defers —
	// but an incomplete journal means the chain reader can no longer
	// verify directory listings against it, and says so.
	JournalErrors int
}

// AgentLibName is the agent library's image name.
const AgentLibName = "libviprof.so"

// NewVMAgent builds an agent bound to nothing; call Bind once the VM
// process exists (the jvm.Config needs the agent before Launch returns
// the process, so binding is two-phase).
func NewVMAgent(m *kernel.Machine) *VMAgent {
	return &VMAgent{m: m, moved: make(map[*jit.CodeBody]addr.Address)}
}

// Bind loads libviprof.so into the VM process and attaches the agent.
func (a *VMAgent) Bind(proc *kernel.Process) error {
	b := image.NewBuilder(AgentLibName)
	for _, s := range []struct {
		name string
		size uint64
	}{
		{"viprof_log_compile", 300},
		{"viprof_flag_move", 120},
		{"viprof_write_map", 700},
		{"viprof_notify_daemon", 200},
	} {
		b.Add(s.name, s.size)
	}
	img, err := b.Image()
	if err != nil {
		return err
	}
	base, err := a.m.Kern.LoadImage(proc, img, true)
	if err != nil {
		return fmt.Errorf("viprof agent: %v", err)
	}
	a.lib, a.libBase = img, base
	a.proc = proc
	return nil
}

// Stats returns agent activity counters.
func (a *VMAgent) Stats() AgentStats { return a.stats }

// Lib returns the agent library image (nil before Bind).
func (a *VMAgent) Lib() *image.Image { return a.lib }

// exec charges n micro-ops at an agent library symbol (user mode).
func (a *VMAgent) exec(symbol string, n int) {
	if a.lib == nil {
		return
	}
	sym, ok := a.lib.Lookup(symbol)
	if !ok {
		return
	}
	start := a.libBase + sym.Off
	a.m.CPU().ExecSymbol(start, start, start+addr.Address(sym.Size), n, 1, 0, 0)
}

// OnCompile implements jvm.Agent: "we add instructions in the body of
// the compile and recompile methods within the VM to log the beginning
// address, size and signature of the method that was just compiled
// into a buffer" (§3).
func (a *VMAgent) OnCompile(body *jit.CodeBody, epoch int) {
	a.exec("viprof_log_compile", 70)
	a.pending = append(a.pending, body)
	a.known = append(a.known, body)
	a.stats.Compiles++
}

// OnMove implements jvm.Agent: "we simply flag it instead of actually
// logging it in order to avoid undue overhead ... the body of the GC
// methods are highly tuned" (§3).
func (a *VMAgent) OnMove(body *jit.CodeBody, old addr.Address) {
	if a.EagerMoveLog {
		// The rejected design: format and persist a full relocation
		// record from inside the collector.
		a.exec("viprof_flag_move", 160)
		rec := fmt.Sprintf("%08x %08x %d %s\n",
			uint64(old), uint64(body.Start()), body.Size, body.Method.Signature())
		// The move log is ablation-only instrumentation for the rejected
		// eager design; a lost record only understates that design's cost.
		//viplint:allow errflow ablation-only move log, loss is benign
		a.m.Kern.SysWrite(a.proc, MapPath(a.proc.PID, -1)+".moves", []byte(rec)) //viplint:allow record-frame ablation-only text log, nothing resolves through it
	} else {
		a.exec("viprof_flag_move", 5)
	}
	if _, dup := a.moved[body]; !dup {
		a.moved[body] = old
	}
	a.stats.Moves++
}

// PreGC implements jvm.Agent: the epoch-boundary map write, performed
// "just before the launching of the garbage collection" (§3.1).
func (a *VMAgent) PreGC(epoch int) { a.writeMap(epoch) }

// OnExit implements jvm.Agent: the final map write at VM shutdown, so
// samples from the last epoch resolve too, plus the agent's persisted
// self-counters. A killed VM never reaches this — the missing stats
// file is the durable evidence.
func (a *VMAgent) OnExit(epoch int) {
	a.writeMap(epoch)
	a.writeStats()
}

// writeMap emits the code map for the closing epoch. In the paper's
// partial scheme it contains only methods compiled (or recompiled)
// since the previous write plus methods moved by the previous
// collection; in FullMaps ablation mode it re-lists every known body.
func (a *VMAgent) writeMap(epoch int) {
	var bodies []*jit.CodeBody
	if a.FullMaps {
		bodies = a.known
	} else {
		bodies = a.pending
		// moved is a map; its iteration order would otherwise leak into
		// the persisted file bytes, making byte-identical runs impossible
		// (and torn-write salvage dependent on runtime map order). Sort
		// the moved bodies before they join the emission order.
		moved := make([]*jit.CodeBody, 0, len(a.moved))
		for b := range a.moved {
			moved = append(moved, b)
		}
		sort.Slice(moved, func(i, j int) bool {
			if moved[i].Start() != moved[j].Start() {
				return moved[i].Start() < moved[j].Start()
			}
			return moved[i].Method.Signature() < moved[j].Method.Signature()
		})
		bodies = append(bodies, moved...)
	}
	entries := make([]MapEntry, 0, len(bodies))
	seen := make(map[*jit.CodeBody]bool, len(bodies))
	for _, b := range bodies {
		if seen[b] {
			continue
		}
		seen[b] = true
		entries = append(entries, MapEntry{
			Start: b.Start(),
			Size:  b.Size,
			Epoch: epoch,
			Level: b.Level.String(),
			Sig:   b.Method.Signature(),
		})
	}
	// The oracle captures this epoch's intended entries before the
	// write can fail: it is the fault-free persistence reference the
	// chaos harness checks resolution against.
	a.recordOracle(epoch, entries)
	// A previous epoch's failed write rides along, keeping its own
	// epoch tags.
	if len(a.deferred) > 0 {
		entries = append(append([]MapEntry{}, a.deferred...), entries...)
	}
	// Serialization + write cost, charged to the VM process at the
	// agent's symbols plus the write syscall path.
	a.exec("viprof_write_map", 30+12*len(entries))
	data := AppendMapFile(nil, entries)
	// Temp + rename: the final map path either holds a complete write
	// or does not exist. A torn write tears the .tmp, which the chain
	// reader counts as an orphan instead of misparsing.
	path := MapPath(a.proc.PID, epoch)
	tmp := path + ".tmp"
	//viplint:allow record-frame AppendMapFile frames every record; the payload is a concatenation of frames
	err := a.m.Kern.SysWriteSync(a.proc, tmp, data)
	if err == nil {
		err = a.m.Kern.SysRename(a.proc, tmp, path)
	}
	if err != nil {
		// The epoch's entries defer to the next write instead of
		// vanishing; count the failure so it is visible even if a later
		// write recovers everything.
		a.stats.MapWriteErrors++
		a.stats.DeferredEntries += len(entries)
		a.deferred = entries
		a.pending = a.pending[:0]
		a.moved = make(map[*jit.CodeBody]addr.Address)
		return
	}
	// "We then notify the OProfile daemon and request that the written
	// map be associated with the logged JIT.App samples" (§3).
	a.exec("viprof_notify_daemon", 40)

	a.deferred = nil
	a.pending = a.pending[:0]
	a.moved = make(map[*jit.CodeBody]addr.Address)
	a.stats.MapsWritten++
	a.stats.Entries += len(entries)
	a.stats.MapBytes += uint64(len(data))

	// Ratify the commit in the agent journal. The map is already
	// durable, so a failed append loses nothing — it only weakens the
	// chain reader's listing cross-check, which is why the failure is
	// counted rather than deferred.
	commit := oprofile.CommitRecord(agentCommitVerb, uint64(epoch), uint64(len(entries)))
	if jerr := a.m.Kern.SysWrite(a.proc, AgentJournalPath(a.proc.PID), commit); jerr != nil {
		a.stats.JournalErrors++
	}
}

// recordOracle appends epoch's intended entries to the in-memory
// fault-free reference.
func (a *VMAgent) recordOracle(epoch int, entries []MapEntry) {
	for len(a.oracle) <= epoch {
		a.oracle = append(a.oracle, nil)
	}
	a.oracle[epoch] = append(a.oracle[epoch], entries...)
}

// OracleChain builds a MapChain from the in-memory record of every
// entry the agent intended to persist, regardless of write failures.
// It is what the persisted chain must never contradict.
func (a *VMAgent) OracleChain() *MapChain { return NewMapChain(a.oracle) }

// AgentStatsPath names the agent's persisted self-counters file.
func AgentStatsPath(pid int) string {
	return fmt.Sprintf("%s/%d/agent.stats", MapDir, pid)
}

// AgentJournalPath names the agent's commit journal: one framed
// "commit <epoch> <entries>" record per successfully renamed map file.
// The chain reader cross-checks directory listings against it (a
// committed epoch whose file a listing omits is a lost dirent, not a
// deferred write), and the recovery pass counts its damage.
func AgentJournalPath(pid int) string {
	return fmt.Sprintf("%s/%d/journal", MapDir, pid)
}

// agentCommitVerb names the agent journal's commit records.
const agentCommitVerb = "commit"

// ReadAgentJournal reads a VM's commit journal through the salvage
// layer; it has commit records and no marker.
func ReadAgentJournal(disk *kernel.Disk, pid int) oprofile.CommitJournal {
	return oprofile.ReadCommitJournal(disk, AgentJournalPath(pid), agentCommitVerb, "")
}

// writeStats persists the agent's self-counters as one framed record at
// clean VM exit. Best-effort: a missing or torn stats file reads as
// "the VM did not shut down cleanly", which is exactly right.
func (a *VMAgent) writeStats() {
	ap := AgentPersisted{AgentStats: a.stats, Clean: true}
	// Deliberately discarded: agent.stats is the crash-signal-by-absence
	// protocol — a failed (or torn) stats write reads back as "the VM did
	// not shut down cleanly", which is the correct degraded verdict, and
	// there is no later point in the VM's life to retry or report it.
	//viplint:allow errflow stats absence IS the crash signal; no retry point exists
	_ = a.m.Kern.SysWrite(a.proc, AgentStatsPath(a.proc.PID), record.Frame(oprofile.AppendStats(nil, ap.table())))
}

// AgentPersisted is the agent's self-reported view parsed back from
// agent.stats; nil means the file is missing or damaged (the VM died).
type AgentPersisted struct {
	AgentStats
	Clean bool
}

// table is the agent stats record's schema.
func (ap *AgentPersisted) table() []oprofile.Stat {
	return []oprofile.Stat{
		{Key: "compiles", Ptr: &ap.Compiles}, {Key: "moves", Ptr: &ap.Moves},
		{Key: "maps_written", Ptr: &ap.MapsWritten}, {Key: "entries", Ptr: &ap.Entries},
		{Key: "map_bytes", Ptr: &ap.MapBytes}, {Key: "map_write_errors", Ptr: &ap.MapWriteErrors},
		{Key: "deferred", Ptr: &ap.DeferredEntries}, {Key: "journal_errors", Ptr: &ap.JournalErrors},
		{Key: "clean", Ptr: &ap.Clean},
	}
}

// ReadAgentStats parses an agent.stats file (oprofile.ReadStats); nil
// if no intact record survives or the last one fails to decode.
func ReadAgentStats(data []byte) *AgentPersisted {
	ap := &AgentPersisted{}
	if !oprofile.ReadStats(data, ap.table()) {
		return nil
	}
	return ap
}
