package viprof

import (
	"fmt"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/core"
	"viprof/internal/fleet"
	"viprof/internal/hpc"
	"viprof/internal/oprofile"
)

// TestFleetViewLostMapEpochs: a JIT key a lost map epoch leaves in
// doubt renders unresolved, never as a method from another epoch.
// Host 1 replicated the maps of epochs 1-2 but not 3, so its epoch-3
// key lies past the chain; host 2 replicated epochs 1 and 3 but not 2,
// so its epoch-2 key's backward-search hit in epoch 1 is one the lost
// map could have shadowed. Host 2's epoch-3 key hits its own epoch,
// newer than anything lost, and resolves.
func TestFleetViewLostMapEpochs(t *testing.T) {
	agg := fleet.NewAggregate()
	seq := map[int]uint64{}
	apply := func(rec *fleet.Record) {
		seq[rec.Host]++
		rec.Seq, rec.At = seq[rec.Host], 100*seq[rec.Host]
		if !agg.Apply(rec) {
			t.Fatalf("record %+v not applied", rec)
		}
	}
	for host, epochs := range map[int][]int{1: {1, 2}, 2: {1, 3}} {
		for _, e := range epochs {
			var entries []core.MapEntry
			for i := 0; i < 4; i++ {
				entries = append(entries, core.MapEntry{Start: addr.Address(0x1000 + 256*i), Size: 256,
					Epoch: e, Level: "opt", Sig: fmt.Sprintf("LFleet;m%02d_e%d()V", i, e)})
			}
			apply(&fleet.Record{Kind: fleet.KindMap, Host: host, Epoch: e, Entries: entries})
		}
	}
	jit := func(host, epoch int, n uint64) {
		key := oprofile.Key{Event: hpc.GlobalPowerEvents, Image: oprofile.JITImageName,
			Proc: fmt.Sprintf("host%02d", host), JIT: true, Epoch: epoch, Off: 0x1010}
		apply(&fleet.Record{Kind: fleet.KindDelta, Host: host, Counts: []oprofile.KeyCount{{Key: key, Count: n}}})
	}
	jit(1, 3, 5) // past host 1's chain
	jit(2, 2, 7) // in host 2's gap
	jit(2, 3, 11)

	v := &FleetView{Aggregate: agg, Integrity: &fleet.FleetIntegrity{}}
	rows, unresolved := v.fleetRows(0, ^uint64(0))
	if unresolved != 5+7 {
		t.Errorf("%d JIT samples unresolved, want %d", unresolved, 5+7)
	}
	got := map[string]uint64{}
	for _, r := range rows {
		got[r.image] += r.samples
	}
	want := map[string]uint64{oprofile.JITImageName: 5 + 7, "LFleet;m00_e3()V": 11}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("rows by label %v, want %v", got, want)
	}
	refRows, refUnresolved := refFleetRows(v, 0, ^uint64(0))
	if fmt.Sprint(refRows) != fmt.Sprint(rows) || refUnresolved != unresolved {
		t.Errorf("per-render reference: %v, %d unresolved; fold: %v, %d", refRows, refUnresolved, rows, unresolved)
	}
}
