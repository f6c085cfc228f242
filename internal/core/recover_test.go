package core

import (
	"fmt"
	"testing"
)

// Startup recovery is the default Start path: whatever a previous
// (crashed) run left under var/ is salvaged before the daemon opens
// its own files, without the caller naming the dead run's pids.

func TestDiscoverMapPIDs(t *testing.T) {
	m := newTestMachine()
	disk := m.Kern.Disk()
	disk.Append(MapDir+"/7/map.0", []byte("x"))
	disk.Append(MapDir+"/12/map.3.tmp", []byte("x"))
	disk.Append(MapDir+"/12/map.1", []byte("x"))
	disk.Append(MapDir+"/bogus/map.0", []byte("x"))
	disk.Append("var/lib/oprofile/samples.dat", []byte("x"))
	pids := DiscoverMapPIDs(disk)
	if len(pids) != 2 || pids[0] != 7 || pids[1] != 12 {
		t.Fatalf("DiscoverMapPIDs = %v, want [7 12]", pids)
	}
}

func TestStartRunsStartupRecovery(t *testing.T) {
	m := newTestMachine()
	disk := m.Kern.Disk()
	// An orphan temp with a complete payload and no final file: the
	// canonical crash-between-write-and-rename artifact Start must adopt.
	data := AppendMapFile(nil, []MapEntry{
		{Start: 0x6000_0040, Size: 256, Level: "base", Sig: "app.Main.main"},
	})
	tmp := fmt.Sprintf("%s/42/map.0.tmp", MapDir)
	final := fmt.Sprintf("%s/42/map.0", MapDir)
	disk.Append(tmp, data)

	s, err := Start(m, stdConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Recovery == nil {
		t.Fatal("Session.Recovery nil: startup pass did not run")
	}
	if s.Recovery.Adopted != 1 || !s.Recovery.Clean {
		t.Errorf("recovery stats %+v, want 1 clean adoption", s.Recovery)
	}
	if disk.Exists(tmp) || !disk.Exists(final) {
		t.Errorf("orphan not adopted: tmp exists=%v final exists=%v",
			disk.Exists(tmp), disk.Exists(final))
	}
}

func TestStartNoRecoveryLeavesDiskAlone(t *testing.T) {
	m := newTestMachine()
	disk := m.Kern.Disk()
	tmp := fmt.Sprintf("%s/42/map.0.tmp", MapDir)
	disk.Append(tmp, []byte("staged by the test"))

	cfg := stdConfig()
	cfg.NoRecovery = true
	s, err := Start(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recovery != nil {
		t.Errorf("Recovery = %+v, want nil under NoRecovery", s.Recovery)
	}
	if !disk.Exists(tmp) {
		t.Error("NoRecovery session still touched the staged artifact")
	}
}
