package core

// The paper's future work (§5) includes profiling "multiple
// concurrently executing software stacks". The registry, agent and
// post-processing already key everything by pid, so one VIProf session
// can profile several VMs at once; these tests pin that down.

import (
	"strings"
	"testing"

	"viprof/internal/jvm"
	"viprof/internal/jvm/classes"
	"viprof/internal/oprofile"
)

func TestTwoConcurrentVMs(t *testing.T) {
	m := newTestMachine()
	s, err := Start(m, stdConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Two different programs in two VM processes, timesharing one core.
	progA := buildWorkload(150, 300)
	vmA, procA, err := s.LaunchJVM(progA, jvm.Config{HeapBytes: 128 << 10, AOSThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	progB := buildSecondWorkload(150, 300)
	vmB, procB, err := s.LaunchJVM(progB, jvm.Config{HeapBytes: 128 << 10, AOSThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if procA.PID == procB.PID {
		t.Fatal("both VMs share a pid")
	}
	if !s.Runtime.Registered(procA.PID) || !s.Runtime.Registered(procB.PID) {
		t.Fatal("JIT regions not both registered")
	}

	if err := m.Kern.Run(40_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vmA.Finished() || !vmB.Finished() {
		t.Fatalf("VMs failed: %v / %v", vmA.Err(), vmB.Err())
	}
	s.Shutdown()

	// Each VM has its own agent and map chain.
	if len(s.Agents) != 2 {
		t.Fatalf("%d agents", len(s.Agents))
	}
	for pid, a := range s.Agents {
		if a.Stats().MapsWritten == 0 {
			t.Errorf("vm %d wrote no maps", pid)
		}
	}

	// One report resolves both VMs' JIT samples to their own methods.
	// Both processes are named "jikesrvm", so the proc-name keyed JIT
	// lookup must be disambiguated per pid — this is the multi-stack
	// wrinkle: we report each VM separately, restricting to its pid.
	rep, res, err := s.Report(s.Images(vmA, vmB), map[string]int{
		procA.Name: procA.PID,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	foundA := false
	for _, row := range rep.Rows {
		if strings.Contains(row.Symbol, "Scanner.parseLine") {
			foundA = true
		}
	}
	if !foundA {
		t.Error("VM A's hot method missing from report")
	}
	// VM B's methods resolve through its own chain.
	repB, _, err := s.Report(s.Images(vmA, vmB), map[string]int{
		procB.Name: procB.PID,
	})
	if err != nil {
		t.Fatal(err)
	}
	foundB := false
	for _, row := range repB.Rows {
		if strings.Contains(row.Symbol, "xmlparse.Parser.scanToken") {
			foundB = true
		}
	}
	if !foundB {
		for _, r := range repB.Rows[:min(len(repB.Rows), 10)] {
			t.Logf("row: %s %s", r.Image, r.Symbol)
		}
		t.Error("VM B's hot method missing from report")
	}

	// Sample conservation: both VMs produced JIT samples.
	if agg, ok := rep.FindImage(oprofile.JITImageName); !ok || agg.Counts[0] == 0 || agg.Symbol != "*" {
		t.Errorf("no JIT samples aggregated: %+v", agg)
	}
}

// memCounts are a single-core machine's memory-system counts.
type memCounts struct {
	Cycles, L2Misses, L2Accesses, DTLBMisses uint64
}

// twoVMCounts runs TestTwoConcurrentVMs' VM A alone, or A and B
// timesharing one core, under a VIProf session and returns the
// machine's counts after the session shuts down.
func twoVMCounts(t *testing.T, withB bool) memCounts {
	t.Helper()
	m := newTestMachine()
	s, err := Start(m, stdConfig())
	if err != nil {
		t.Fatal(err)
	}
	progs := []*classes.Program{buildWorkload(150, 300)}
	if withB {
		progs = append(progs, buildSecondWorkload(150, 300))
	}
	var vms []*jvm.VM
	for _, prog := range progs {
		vm, _, err := s.LaunchJVM(prog, jvm.Config{HeapBytes: 128 << 10, AOSThreshold: 100})
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	if err := m.Kern.Run(40_000_000_000); err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		if !vm.Finished() {
			t.Fatalf("VM failed: %v", vm.Err())
		}
	}
	s.Shutdown()
	h := m.Core.Mem
	l2a, l2m := h.L2.Stats()
	_, dm := h.DTLB.Stats()
	return memCounts{Cycles: m.Core.Cycles(), L2Misses: l2m, L2Accesses: l2a, DTLBMisses: dm}
}

// Two VMs' anonymous memory is private: B's heap accesses cannot hit
// lines VM A brought into the cache, so the pair misses in L2 more
// than A does alone. When every process's heap started at the same
// address, the pair read exactly A's solo misses (2573 of 47886
// accesses, 941 DTLB misses). Both runs' counts are pinned.
func TestTwoVMsMissMoreThanOne(t *testing.T) {
	solo, pair := twoVMCounts(t, false), twoVMCounts(t, true)
	if want := (memCounts{Cycles: 4_004_722, L2Misses: 2573, L2Accesses: 22_056, DTLBMisses: 920}); solo != want {
		t.Errorf("VM A alone: %+v, want %+v", solo, want)
	}
	if want := (memCounts{Cycles: 8_244_213, L2Misses: 5927, L2Accesses: 48_134, DTLBMisses: 2430}); pair != want {
		t.Errorf("VMs A and B: %+v, want %+v", pair, want)
	}
	if pair.L2Misses <= solo.L2Misses {
		t.Errorf("two VMs miss in L2 %d times, VM A alone %d", pair.L2Misses, solo.L2Misses)
	}
}

// buildSecondWorkload is a differently-named program so the two VMs'
// reports are distinguishable.
func buildSecondWorkload(outer, inner int32) *classes.Program {
	p := buildWorkload(outer, inner)
	for _, m := range p.Methods {
		switch {
		case strings.Contains(m.Class, "Scanner"):
			m.Class = "org.apache.xmlparse.Parser"
			m.Name = "scanToken"
		case strings.Contains(m.Class, "Main"):
			m.Class = "org.apache.xmlparse.Main"
		}
	}
	p.Name = "xmlparse"
	return p
}
