package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// The chaos harness: run a complete profiled session while the kernel's
// fault injector attacks the persistence layer with a seeded schedule,
// then hand everything — driver, daemon, agent, fault stats, the report
// built from whatever survived on disk — to the invariant checks in
// internal/core/chaos_test.go. Each seed deterministically selects a
// scenario (which writer gets attacked, and how) and a fault schedule
// within it.

// ChaosScenario names the attack profile a seed selects.
type ChaosScenario int

// Scenarios, cycled by seed so any contiguous seed range covers all of
// them.
const (
	// ScenarioDaemonCrash kills the oprofiled daemon mid-flush.
	ScenarioDaemonCrash ChaosScenario = iota
	// ScenarioENOSPC starves every writer under var/ of disk space.
	ScenarioENOSPC
	// ScenarioTornMap tears the VM agent's epoch-map writes.
	ScenarioTornMap
	// ScenarioTornSamples tears (and slows) the daemon's sample flushes.
	ScenarioTornSamples
	// ScenarioVMKill crashes the VM process during a map write.
	ScenarioVMKill
	// ScenarioRenameFault attacks the atomic commit itself: the agent's
	// temp-then-rename map commits fail before the rename (orphan temp),
	// after it (durable but reported failed), or crash mid-commit.
	ScenarioRenameFault
	// ScenarioDirDamage damages directory listings under the map dir:
	// dropped dirents hide committed files, phantom dirents invent
	// orphan temps that do not exist.
	ScenarioDirDamage
	// ScenarioReadFault attacks the offline side: after the session
	// shuts down, the recovery pass's and the report's reads of profile
	// artifacts deliver seeded EIO (the write side all landed).
	ScenarioReadFault
	// ScenarioShardCrash kills the daemon on an SMP machine partway
	// through a multi-record flush, so only a subset of the per-CPU
	// shards reached disk. The invariants must hold per CPU: persisted
	// counts stay within each CPU's logged totals (no cross-CPU
	// misattribution) and the partial flush degrades loudly.
	ScenarioShardCrash
	numScenarios
)

// String names the scenario.
func (s ChaosScenario) String() string {
	switch s {
	case ScenarioDaemonCrash:
		return "daemon-crash"
	case ScenarioENOSPC:
		return "enospc"
	case ScenarioTornMap:
		return "torn-map"
	case ScenarioTornSamples:
		return "torn-samples"
	case ScenarioVMKill:
		return "vm-kill"
	case ScenarioRenameFault:
		return "rename-fault"
	case ScenarioDirDamage:
		return "dir-damage"
	case ScenarioReadFault:
		return "read-fault"
	case ScenarioShardCrash:
		return "shard-crash"
	default:
		return fmt.Sprintf("scenario-%d", int(s))
	}
}

// ScenarioOf maps a seed to its scenario.
func ScenarioOf(seed int64) ChaosScenario {
	s := seed % int64(numScenarios)
	if s < 0 {
		s += int64(numScenarios)
	}
	return ChaosScenario(s)
}

func scenarioPlan(sc ChaosScenario, seed int64) kernel.FaultPlan {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 1))
	plan := kernel.FaultPlan{Seed: seed}
	switch sc {
	case ScenarioDaemonCrash:
		plan.PathPrefix = "var/lib/oprofile/"
		plan.PCrash = 0.05 + 0.3*rng.Float64()
		plan.MaxFaults = 1
	case ScenarioENOSPC:
		plan.PathPrefix = "var/"
		plan.PENOSPC = 0.1 + 0.4*rng.Float64()
		plan.PEIO = 0.1 * rng.Float64()
		plan.MaxFaults = 2 + rng.Intn(6)
	case ScenarioTornMap:
		plan.PathPrefix = core.MapDir
		plan.PTorn = 0.2 + 0.5*rng.Float64()
		plan.MaxFaults = 1 + rng.Intn(5)
	case ScenarioTornSamples:
		plan.PathPrefix = "var/lib/oprofile/"
		plan.PTorn = 0.2 + 0.5*rng.Float64()
		plan.PLatency = 0.2 * rng.Float64()
		plan.MaxFaults = 2 + rng.Intn(6)
	case ScenarioVMKill:
		plan.PathPrefix = core.MapDir
		plan.PCrash = 0.1 + 0.4*rng.Float64()
		plan.MaxFaults = 1
	case ScenarioRenameFault:
		plan.PathPrefix = core.MapDir
		plan.PRenameBefore = 0.15 + 0.3*rng.Float64()
		plan.PRenameAfter = 0.1 + 0.2*rng.Float64()
		plan.PRenameCrash = 0.05 + 0.1*rng.Float64()
		plan.MaxFaults = 1 + rng.Intn(3)
	case ScenarioShardCrash:
		// Scripted, not probabilistic: crash the daemon on an exact
		// matched write a few records in, so on a multi-core machine
		// the crash lands between the per-CPU records of a flush and
		// leaves only a shard subset persisted.
		plan.PathPrefix = "var/lib/oprofile/"
		plan.Script = []kernel.FaultPoint{{Write: 1 + rng.Intn(6), Kind: kernel.FaultCrash}}
	}
	return plan
}

// scenarioListPlan derives ScenarioDirDamage's listing-damage schedule.
func scenarioListPlan(seed int64) kernel.ListFaultPlan {
	rng := rand.New(rand.NewSource(seed*0x2545F491 + 11))
	return kernel.ListFaultPlan{
		Seed:       seed,
		PathPrefix: core.MapDir,
		PDrop:      0.1 + 0.3*rng.Float64(),
		PPhantom:   0.05 + 0.2*rng.Float64(),
		MaxFaults:  1 + rng.Intn(4),
	}
}

// ChaosSchedule is a composed attack: one or more scenarios armed
// simultaneously, each with its own seeded plan (independent RNG
// streams — see the propose/note split in internal/kernel/fault.go for
// why composition cannot change what a single plan would inject).
type ChaosSchedule struct {
	Seed      int64
	Scenarios []ChaosScenario
	// Plans are the write/rename-side fault plans (one per write-side
	// scenario); ListPlan is ScenarioDirDamage's listing damage and
	// ReadPlan is ScenarioReadFault's offline-read EIO schedule, each
	// nil when its scenario is not drawn.
	Plans    []kernel.FaultPlan
	ListPlan *kernel.ListFaultPlan
	ReadPlan *kernel.ReadFaultPlan
	// Cores is the simulated machine's core count (0/1 = single-core).
	// Composed seeds draw it so every fault scenario also runs against
	// SMP machines; ScenarioShardCrash forces it multi-core.
	Cores int
}

// String names the composition, e.g. "enospc+rename-fault".
func (cs ChaosSchedule) String() string {
	if len(cs.Scenarios) == 0 {
		return "scripted"
	}
	names := make([]string, len(cs.Scenarios))
	for i, sc := range cs.Scenarios {
		names[i] = sc.String()
	}
	return strings.Join(names, "+")
}

// ScheduleOf maps a seed to its composed schedule. The first
// numScenarios seeds each run their scenario alone (so any sweep from
// seed 0 covers every scenario in isolation); later seeds draw 1-3
// distinct scenarios. Per-scenario plan seeds are derived from the run
// seed so a composed schedule's individual plans never share RNG
// streams.
func ScheduleOf(seed int64) ChaosSchedule {
	sched := ChaosSchedule{Seed: seed}
	var scens []ChaosScenario
	if seed >= 0 && seed < int64(numScenarios) {
		scens = []ChaosScenario{ChaosScenario(seed)}
	} else {
		rng := rand.New(rand.NewSource(seed*0x6C078965 + 7))
		n := 1 + rng.Intn(3)
		for _, p := range rng.Perm(int(numScenarios))[:n] {
			scens = append(scens, ChaosScenario(p))
		}
		// Core count composes with the fault mix: drawn after the
		// scenario picks so arming SMP never perturbs which scenarios a
		// seed selects.
		sched.Cores = 1 << rng.Intn(3)
	}
	for _, sc := range scens {
		if sc == ScenarioShardCrash && sched.Cores < 2 {
			// A shard-subset crash needs shards: force a multi-core run
			// (including the scenario's isolated low seed).
			sched.Cores = 4
		}
	}
	for i, sc := range scens {
		pseed := seed*31 + int64(i) + 1
		switch sc {
		case ScenarioDirDamage:
			lp := scenarioListPlan(pseed)
			sched.ListPlan = &lp
		case ScenarioReadFault:
			rp := ReadChaosPlan(pseed)
			sched.ReadPlan = &rp
		default:
			sched.Plans = append(sched.Plans, scenarioPlan(sc, pseed))
		}
	}
	sched.Scenarios = scens
	return sched
}

// ChaosResult is everything one chaos run produced, for the invariant
// checks.
type ChaosResult struct {
	Seed     int64
	Scenario ChaosScenario
	Schedule ChaosSchedule
	Plan     kernel.FaultPlan
	Faults   kernel.FaultStats
	// ListFaultsRecovery snapshots the listing-damage stats after the
	// recovery pass and before the report's own directory reads;
	// ListFaults is the final total. The difference is the damage the
	// report phase itself absorbed.
	ListFaultsRecovery, ListFaults kernel.ListFaultStats
	// Recovery is the startup recovery pass's decision record.
	Recovery *oprofile.RecoveryStats

	Machine *kernel.Machine
	Session *core.Session
	VM      *jvm.VM
	Proc    *kernel.Process
	// Cores is the machine's core count for this run.
	Cores int
	// VMKilled reports the VM process was crashed by fault injection
	// (so the workload legitimately did not finish).
	VMKilled bool

	Driver oprofile.DriverStats
	Daemon *oprofile.Daemon
	Agent  *core.VMAgent

	Report   *oprofile.Report
	Resolver *core.Resolver

	// ReadFaults counts injected offline-read failures (RunChaosRead
	// and composed schedules that drew ScenarioReadFault; zero
	// otherwise).
	ReadFaults kernel.ReadFaultStats

	// TraceStats is the VM's trace-cache counter snapshot, so the sweep
	// can prove its misattribution checks covered runs where fused
	// trace replay — and its invalidation under promotion and GC moves —
	// was actually active.
	TraceStats jvm.TraceStats
}

// RunChaos executes one full profiled session under the seed's
// composed fault schedule, runs the startup recovery pass over the
// crashed state, and builds the offline report from whatever survived
// on disk. scale multiplies the workload size (1.0 ≈ one simulated
// second).
func RunChaos(seed int64, scale float64) (*ChaosResult, error) {
	return RunChaosSchedule(seed, scale, ScheduleOf(seed))
}

// ReadChaosPlan derives the deterministic read-fault schedule for a
// seed: EIO on offline reads of profile artifacts (sample file, stats
// files, epoch code maps). The prefix deliberately excludes RVM.map —
// attacking inputs the Integrity section accounts for keeps the
// "every fault is visible" invariant checkable.
func ReadChaosPlan(seed int64) kernel.ReadFaultPlan {
	rng := rand.New(rand.NewSource(seed*0x5851F42D + 3))
	return kernel.ReadFaultPlan{
		Seed:       seed,
		PathPrefix: "var/lib/",
		PEIO:       0.1 + 0.4*rng.Float64(),
		MaxFaults:  1 + rng.Intn(4),
	}
}

// RunChaosRead runs a fault-free profiled session, then attacks the
// *offline* report assembly with the seed's read-fault schedule: the
// writes all land, but reading them back delivers seeded EIO. The
// salvage readers' contract under test is the mirror image of the write
// side's — an unreadable artifact degrades the report loudly (missing
// sample file, nil daemon stats, poisoned map epochs), never silently.
// The injector is disarmed before returning so callers can re-read the
// true disk.
func RunChaosRead(seed int64, scale float64) (*ChaosResult, error) {
	return RunChaosReadPlan(seed, scale, ReadChaosPlan(seed))
}

// RunChaosReadPlan is RunChaosRead with a caller-supplied read-fault
// plan (scripted EIO points) instead of the seed-derived one.
func RunChaosReadPlan(seed int64, scale float64, rplan kernel.ReadFaultPlan) (*ChaosResult, error) {
	r, err := RunChaosPlan(seed, scale, kernel.FaultPlan{Seed: seed})
	if err != nil {
		return nil, err
	}
	disk := r.Machine.Kern.Disk()
	disk.SetReadFaultInjector(rplan)
	rep, res, err := r.Session.Report(r.Session.Images(r.VM), map[string]int{r.Proc.Name: r.Proc.PID})
	r.ReadFaults = disk.ReadFaultStats()
	disk.ClearReadFaultInjector()
	if err != nil {
		return nil, fmt.Errorf("read-chaos seed %d: report: %v", seed, err)
	}
	r.Report, r.Resolver = rep, res
	return r, nil
}

// RunChaosPlan is RunChaos with a caller-supplied fault plan (scripted
// crash points, custom probabilities) instead of the seed-derived one.
func RunChaosPlan(seed int64, scale float64, plan kernel.FaultPlan) (*ChaosResult, error) {
	return RunChaosSchedule(seed, scale, ChaosSchedule{Seed: seed, Plans: []kernel.FaultPlan{plan}})
}

// RunChaosSchedule runs the full crash-and-recover cycle under a
// composed schedule: session + workload under the armed injectors,
// shutdown, the startup recovery pass (itself under the same
// injectors — recovery's own writes and renames can be struck), then
// the offline report over the recovered disk.
func RunChaosSchedule(seed int64, scale float64, sched ChaosSchedule) (*ChaosResult, error) {
	if scale <= 0 {
		scale = 1.0
	}
	spec := workload.Spec{
		Name:        "chaos",
		MainClass:   "chaos.Main",
		BaseSeconds: 1,
		Classes:     4,
		ColdPerHot:  2,
		HotMethods:  2,
		OuterIters:  150,
		InnerIters:  300,
		ArrayLen:    256,
		AllocEvery:  4,
		SurviveRing: 64,
		MemsetBytes: 512,
		WriteEvery:  8,
		HeapBytes:   128 << 10,
		Seed:        seed,
	}
	prog, err := workload.Build(spec, scale)
	if err != nil {
		return nil, err
	}
	machine := BuildMachine(sched.Cores, seed)
	session, err := core.Start(machine, core.Config{
		Events: []oprofile.EventConfig{{Event: hpc.GlobalPowerEvents, Period: 45_000}},
		// A small spill bound so flush-failure scenarios actually
		// exercise the framed spill protocol (the default bound is far
		// above what a chaos-scale backlog reaches).
		Daemon: oprofile.DaemonConfig{SpillMax: 16},
		// The chaos cycle stages its own crash and drives the recovery
		// pass explicitly below, under the armed injectors; the default
		// startup pass would only add pre-crash journal traffic.
		NoRecovery: true,
	})
	if err != nil {
		return nil, err
	}
	vm, proc, err := session.LaunchJVM(prog, jvm.Config{HeapBytes: spec.HeapBytes})
	if err != nil {
		return nil, err
	}
	// Arm the injectors only after launch, so session setup writes (none
	// today, but cheap insurance) cannot consume schedule randomness.
	machine.Kern.SetFaultInjectors(sched.Plans...)
	disk := machine.Kern.Disk()
	if sched.ListPlan != nil {
		disk.SetListFaultInjector(*sched.ListPlan)
	}

	limit := uint64(spec.BaseSeconds*scale*100+60) * cpu.ClockHz
	if err := machine.Kern.Run(limit); err != nil {
		return nil, fmt.Errorf("chaos seed %d: %v", seed, err)
	}
	killed := proc.Killed()
	if !vm.Finished() && !killed {
		return nil, fmt.Errorf("chaos seed %d: VM neither finished nor killed: %v", seed, vm.Err())
	}
	session.Shutdown()

	// ScenarioReadFault arms only now: the session's own writes all
	// landed, and the recovery pass plus the report absorb the EIOs.
	if sched.ReadPlan != nil {
		disk.SetReadFaultInjector(*sched.ReadPlan)
	}

	// The startup recovery pass, still under fire: its marker writes,
	// adoption renames, and merge writes face the same injectors, and
	// its directory scans see the damaged listings.
	rec, err := core.RunRecovery(machine, []int{proc.PID})
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d: recovery: %v", seed, err)
	}
	listRec := disk.ListFaultStats()

	rep, res, err := session.Report(session.Images(vm), map[string]int{proc.Name: proc.PID})
	listAll := disk.ListFaultStats()
	readStats := disk.ReadFaultStats()
	disk.ClearListFaultInjector()
	disk.ClearReadFaultInjector()
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d: report: %v", seed, err)
	}
	var plan kernel.FaultPlan
	if len(sched.Plans) == 1 {
		plan = sched.Plans[0]
	}
	return &ChaosResult{
		Seed:               seed,
		Scenario:           ScenarioOf(seed),
		Schedule:           sched,
		Plan:               plan,
		Faults:             machine.Kern.FaultStats(),
		ListFaultsRecovery: listRec,
		ListFaults:         listAll,
		Recovery:           rec,
		Machine:            machine,
		Session:            session,
		VM:                 vm,
		Proc:               proc,
		Cores:              len(machine.Cores),
		VMKilled:           killed,
		Driver:             session.Prof.Driver.Stats(),
		Daemon:             session.Prof.Daemon,
		Agent:              session.Agents[proc.PID],
		Report:             rep,
		Resolver:           res,
		ReadFaults:         readStats,
		TraceStats:         vm.TraceStats(),
	}, nil
}
