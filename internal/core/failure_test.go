package core

// Failure injection (DESIGN.md §7): the pipeline must degrade, not
// lie, when parts of it are damaged — torn code-map writes, missing
// maps, sample-buffer overflow, samples in reclaimed code.

import (
	"strings"
	"testing"

	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/jvm/jit"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// TestTornMapFile: a map file torn on disk (a crash after the rename,
// media damage) no longer fails the whole report — the salvage reader
// recovers the intact records, the loss is accounted in the Integrity
// section, and the durable resolver refuses to attribute anything the
// damage could have shadowed.
func TestTornMapFile(t *testing.T) {
	s, vm, proc, m := runSession(t, stdConfig(), 128<<10)
	disk := m.Kern.Disk()
	// Tear the epoch-0 map: keep the first half of its bytes.
	path := MapPath(proc.PID, 0)
	data, err := disk.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 20 {
		t.Skip("map too small to tear meaningfully")
	}
	disk.Remove(path)
	disk.Append(path, data[:len(data)/2+3]) // mid-record cut
	rep, _, err := Vipreport(disk, s.Images(vm), map[string]int{proc.Name: proc.PID}, s.Events())
	if err != nil {
		t.Fatalf("torn map file should salvage, not fail: %v", err)
	}
	if rep.Integrity == nil {
		t.Fatal("no Integrity section")
	}
	if !rep.Integrity.Degraded() {
		t.Fatal("torn map file not surfaced as degradation")
	}
	var mi *oprofile.MapIntegrity
	for i := range rep.Integrity.Maps {
		if rep.Integrity.Maps[i].PID == proc.PID {
			mi = &rep.Integrity.Maps[i]
		}
	}
	if mi == nil {
		t.Fatal("no map integrity entry for the VM")
	}
	if mi.TornFiles == 0 {
		t.Errorf("torn file not counted: %+v", *mi)
	}
	if mi.DroppedRecords == 0 && mi.DroppedBytes == 0 {
		t.Errorf("loss not accounted: %+v", *mi)
	}
	// No misattribution: whatever the durable resolver still attributes
	// must match the undamaged chain.
	undamaged := NewMapChain(nil)
	{
		full, err := readChainFromBytes(t, disk, proc.PID, path, data)
		if err != nil {
			t.Fatal(err)
		}
		undamaged = full
	}
	torn, err := ReadMapChain(disk, proc.PID)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < undamaged.Epochs(); e++ {
		for _, want := range undamaged.Entries(e) {
			got, _, found := torn.ResolveDurable(e, want.Start)
			if found && got.Sig != want.Sig {
				t.Errorf("epoch %d pc %v: torn chain says %q, truth is %q",
					e, want.Start, got.Sig, want.Sig)
			}
		}
	}
}

// readChainFromBytes restores the original file contents, reads the
// chain, then re-tears the file (helper for comparing a torn chain
// against the undamaged truth).
func readChainFromBytes(t *testing.T, disk *kernel.Disk, pid int, path string, original []byte) (*MapChain, error) {
	t.Helper()
	torn, err := disk.Read(path)
	if err != nil {
		return nil, err
	}
	tornCopy := append([]byte(nil), torn...)
	disk.Remove(path)
	disk.Append(path, original)
	chain, err := ReadMapChain(disk, pid)
	disk.Remove(path)
	disk.Append(path, tornCopy)
	return chain, err
}

// TestTornWriteSweep: truncate a framed epoch map at every byte offset;
// the salvage reader must recover an exact entry prefix with the loss
// accounted — never a corrupted or fabricated entry.
func TestTornWriteSweep(t *testing.T) {
	entries := []MapEntry{
		{Start: 0x6000_0000, Size: 64, Epoch: 0, Level: "base", Sig: "LA;m0()V"},
		{Start: 0x6000_0100, Size: 128, Epoch: 0, Level: "opt", Sig: "LA;m1(I)I"},
		{Start: 0x6000_0400, Size: 96, Epoch: 1, Level: "base", Sig: "LB;m2()V"},
		{Start: 0x6000_0800, Size: 32, Epoch: 1, Level: "base", Sig: "LB;m3(J)J"},
		{Start: 0x6000_0a00, Size: 256, Epoch: 2, Level: "opt", Sig: "LC;m4()V"},
		{Start: 0x6000_1000, Size: 48, Epoch: 2, Level: "base", Sig: "LC;m5()V"},
	}
	full := AppendMapFile(nil, entries)
	for cut := 0; cut <= len(full); cut++ {
		got, sal, trailerOK, err := salvageMapData(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: structural error from salvage: %v", cut, err)
		}
		// Recovered entries must be an exact prefix of the original.
		if len(got) > len(entries) {
			t.Fatalf("cut %d: fabricated entries: %d > %d", cut, len(got), len(entries))
		}
		for i := range got {
			if got[i] != entries[i] {
				t.Fatalf("cut %d: entry %d corrupted: %+v want %+v", cut, i, got[i], entries[i])
			}
		}
		// Loss must always be visible: either everything survived
		// (trailer intact) or the salvage accounting shows the damage.
		complete := cut == len(full)
		if complete {
			if !trailerOK || sal.Lossy() || len(got) != len(entries) {
				t.Fatalf("cut %d: complete file misread: %d entries, trailerOK=%v, %+v",
					cut, len(got), trailerOK, sal)
			}
		} else if trailerOK && !sal.Lossy() && cut > 0 {
			t.Fatalf("cut %d: truncated file reads as complete and clean", cut)
		}
	}
}

// TestTornWriteByteFlips: flipping any single byte must never fabricate
// an entry that was not written.
func TestTornWriteByteFlips(t *testing.T) {
	entries := []MapEntry{
		{Start: 0x6000_0000, Size: 64, Epoch: 0, Level: "base", Sig: "LA;m0()V"},
		{Start: 0x6000_0100, Size: 128, Epoch: 1, Level: "opt", Sig: "LA;m1(I)I"},
	}
	valid := map[MapEntry]bool{}
	for _, e := range entries {
		valid[e] = true
	}
	full := AppendMapFile(nil, entries)
	for pos := 0; pos < len(full); pos++ {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x41
		got, sal, trailerOK, err := salvageMapData(mut)
		if err != nil {
			// The flip produced a checksum-valid but unparseable record:
			// impossible for a single-byte flip against CRC-32 unless it
			// hit the payload and the checksum simultaneously. Any error
			// is loud, which satisfies the contract.
			continue
		}
		for _, e := range got {
			if !valid[e] {
				t.Fatalf("flip at %d fabricated entry %+v", pos, e)
			}
		}
		if len(got) < len(entries) && !sal.Lossy() && trailerOK {
			t.Fatalf("flip at %d lost an entry silently", pos)
		}
	}
}

// TestMissingMapsDegradeToUnresolved: deleting all code maps must not
// break report generation; JIT samples degrade to "(no symbols)".
func TestMissingMapsDegradeToUnresolved(t *testing.T) {
	s, vm, proc, m := runSession(t, stdConfig(), 128<<10)
	disk := m.Kern.Disk()
	for _, p := range disk.List() {
		if strings.HasPrefix(p, MapDir) {
			disk.Remove(p)
		}
	}
	rep, res, err := s.Report(s.Images(vm), map[string]int{proc.Name: proc.PID})
	if err != nil {
		t.Fatal(err)
	}
	jitRow, ok := rep.FindImage(oprofile.JITImageName)
	if !ok || jitRow.Counts[hpc.GlobalPowerEvents] == 0 {
		t.Fatal("JIT samples vanished with the maps")
	}
	for _, row := range rep.Rows {
		if row.Image == oprofile.JITImageName && row.Symbol != oprofile.NoSymbols {
			t.Errorf("JIT symbol %q resolved with no maps on disk", row.Symbol)
		}
	}
	if res.Unresolved() == 0 {
		t.Error("resolver reported no unresolved samples")
	}
}

// TestBufferOverflowConservation: with a tiny driver buffer the
// daemon must still produce a consistent report — dropped samples are
// counted, logged samples are conserved end to end.
func TestBufferOverflowConservation(t *testing.T) {
	m := newTestMachine()
	s, err := Start(m, Config{
		Events:    []oprofile.EventConfig{{Event: hpc.GlobalPowerEvents, Period: 9_000}},
		BufferCap: 16,
		// A slow daemon guarantees overflow between drains.
		Daemon: oprofile.DaemonConfig{WakeCycles: 3_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, proc, err := s.LaunchJVM(buildWorkload(300, 300), jvm.Config{HeapBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(20_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("VM failed: %v", vm.Err())
	}
	s.Shutdown()

	st := s.Prof.Driver.Stats()
	if st.Dropped == 0 {
		t.Fatalf("tiny buffer never overflowed: %+v", st)
	}
	if st.Logged+st.Dropped != st.NMIs {
		t.Errorf("sample accounting broken: logged %d + dropped %d != NMIs %d",
			st.Logged, st.Dropped, st.NMIs)
	}
	// Everything logged must appear in the report totals.
	rep, _, err := s.Report(s.Images(vm), map[string]int{proc.Name: proc.PID})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, ev := range s.Events() {
		total += rep.Totals[ev]
	}
	if total != st.Logged {
		t.Errorf("report totals %d != logged %d", total, st.Logged)
	}
}

// TestSamplesInReclaimedCode: a sample taken in a body that is later
// freed and whose address range is reused still resolves to the method
// that owned the range *at sampling time* (the backward search's whole
// point).
func TestSamplesInReclaimedCode(t *testing.T) {
	h := newProtoHarness(t)
	// Compile A, sample it in epoch 0, recompile A (old body dies),
	// collect twice so the from-space is reused, then compile B —
	// possibly over A's old range.
	a0 := h.compile(0, 30, jit.Baseline)
	samplePC := a0.Start() + 12
	sampleEpoch := h.heap.Epoch()
	wantSig := a0.Method.Signature()

	h.compile(0, 25, jit.Opt) // old baseline body of method 0 dies
	h.heap.Collect()
	h.heap.Collect()
	h.compile(1, 40, jit.Baseline)
	h.heap.Collect()
	h.agent.OnExit(h.heap.Epoch())

	chain, err := ReadMapChain(h.m.Kern.Disk(), h.proc.PID)
	if err != nil {
		t.Fatal(err)
	}
	entry, _, ok := chain.Resolve(sampleEpoch, samplePC)
	if !ok {
		t.Fatal("stale sample unresolvable")
	}
	if entry.Sig != wantSig {
		t.Errorf("stale sample resolved to %q, want %q", entry.Sig, wantSig)
	}
}

// TestAgentSurvivesWriteToFullBuffer: the VM agent writing a map while
// the profiler's sample buffer is overflowing must not deadlock or
// corrupt either stream.
func TestAgentSurvivesOverflowingDriver(t *testing.T) {
	m := newTestMachine()
	s, err := Start(m, Config{
		Events:    []oprofile.EventConfig{{Event: hpc.GlobalPowerEvents, Period: 9_000}},
		BufferCap: 8,
		Daemon:    oprofile.DaemonConfig{WakeCycles: 5_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, proc, err := s.LaunchJVM(buildWorkload(200, 300), jvm.Config{
		HeapBytes: 96 << 10, AOSThreshold: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(20_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("VM failed: %v", vm.Err())
	}
	s.Shutdown()
	agent := s.Agents[proc.PID]
	if agent.Stats().MapsWritten == 0 {
		t.Fatal("agent wrote nothing under pressure")
	}
	chain, err := ReadMapChain(m.Kern.Disk(), proc.PID)
	if err != nil {
		t.Fatalf("maps corrupted: %v", err)
	}
	if chain.Epochs() == 0 {
		t.Error("no epochs readable")
	}
}

// TestUnregisteredProcJITKeys: JIT keys whose process has no chain
// (e.g. an archive missing the manifest entry) degrade to NoSymbols.
func TestUnregisteredProcJITKeys(t *testing.T) {
	res := &Resolver{
		ELF:       &oprofile.ELFResolver{Images: nil},
		BootMaps:  map[string]BootMap{},
		Chains:    map[int]*MapChain{},
		PIDByProc: map[string]int{},
	}
	img, sym := res.Resolve(oprofile.Key{JIT: true, Proc: "ghost", Epoch: 3, Off: 0x6000_0000})
	if img != oprofile.JITImageName || sym != oprofile.NoSymbols {
		t.Errorf("ghost JIT key resolved to %s/%s", img, sym)
	}
	// Known proc, empty chain.
	res.PIDByProc["vm"] = 9
	res.Chains[9] = NewMapChain(nil)
	img, sym = res.Resolve(oprofile.Key{JIT: true, Proc: "vm", Epoch: 0, Off: 0x6000_0000})
	if sym != oprofile.NoSymbols {
		t.Errorf("empty chain resolved to %s/%s", img, sym)
	}
}
