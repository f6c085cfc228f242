package oprofile

import (
	"fmt"

	"viprof/internal/kernel"
)

// Config assembles a full profiling session (the opcontrol settings).
type Config struct {
	Events    []EventConfig
	BufferCap int
	Daemon    DaemonConfig
	// Registry plugs in the VIProf runtime-profiler extension; nil
	// runs plain OProfile.
	Registry Registry
	// CallGraphDepth enables call-graph sampling when > 0 (requires a
	// Registry that can walk stacks).
	CallGraphDepth int
}

// Profiler is a running profiling session: driver + daemon.
type Profiler struct {
	Driver *Driver
	Daemon *Daemon
}

// Start loads the driver, arms the counters and spawns the daemon —
// "we start VIProf just prior to benchmark launch" (§4.1).
func Start(m *kernel.Machine, cfg Config) (*Profiler, error) {
	drv, err := NewDriver(m, cfg.Events, cfg.BufferCap, cfg.Registry)
	if err != nil {
		return nil, err
	}
	drv.CallGraphDepth = cfg.CallGraphDepth
	d, err := StartDaemon(m, drv, cfg.Daemon)
	if err != nil {
		return nil, err
	}
	return &Profiler{Driver: drv, Daemon: d}, nil
}

// Shutdown stops sampling and flushes everything that is still
// buffered to disk (opcontrol --shutdown). Call it after the workload
// process has exited, before post-processing.
func (p *Profiler) Shutdown(m *kernel.Machine) {
	p.Driver.Disarm()
	p.Daemon.FinalFlush(m)
}

// CheckConservation checks that the sampling pipeline accounts for
// every sample on the CPU it fired on, as the pipeline stands: on each
// CPU the driver logged or dropped every NMI it took (logged + dropped
// = NMIs) and the daemon aggregated every logged sample it drained
// (aggregated + still buffered = logged), and the per-CPU counters sum
// to the driver's and the daemon's aggregates. It returns the first
// imbalance, or nil.
func (p *Profiler) CheckConservation() error {
	drv := p.Driver
	loggedCPU := p.Daemon.SamplesLoggedCPU()
	var sum DriverStats
	var sumAgg uint64
	for ci := 0; ci < drv.NumCPU(); ci++ {
		cs := drv.StatsCPU(ci)
		var agg uint64
		if ci < len(loggedCPU) {
			agg = loggedCPU[ci]
		}
		if cs.Logged+cs.Dropped != cs.NMIs {
			return fmt.Errorf("cpu%d driver unbalanced: logged %d + dropped %d != NMIs %d",
				ci, cs.Logged, cs.Dropped, cs.NMIs)
		}
		if buffered := uint64(drv.ShardLen(ci)); agg+buffered != cs.Logged {
			return fmt.Errorf("cpu%d daemon unbalanced: aggregated %d + buffered %d != logged %d",
				ci, agg, buffered, cs.Logged)
		}
		sum.NMIs, sum.Logged, sum.Dropped = sum.NMIs+cs.NMIs, sum.Logged+cs.Logged, sum.Dropped+cs.Dropped
		sumAgg += agg
	}
	if ds := drv.Stats(); sum.NMIs != ds.NMIs || sum.Logged != ds.Logged || sum.Dropped != ds.Dropped {
		return fmt.Errorf("per-CPU driver stats (NMIs %d, logged %d, dropped %d) do not sum to the aggregate (%d, %d, %d)",
			sum.NMIs, sum.Logged, sum.Dropped, ds.NMIs, ds.Logged, ds.Dropped)
	}
	if sumAgg != p.Daemon.SamplesLogged() {
		return fmt.Errorf("per-CPU aggregation %d does not sum to the %d samples the daemon logged",
			sumAgg, p.Daemon.SamplesLogged())
	}
	return nil
}
