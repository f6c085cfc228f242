// Package errflow_bad is a viplint fixture: fault-injected errors
// dropped, shadowed, or left unread — directly and through one or two
// helper levels — plus one suppressed occurrence.
package errflow_bad

import (
	"viprof/internal/kernel"
)

// readSpill's error derives from Disk.Read: the summary carries the
// fault mask to callers.
func readSpill(d *kernel.Disk, path string) ([]byte, error) {
	return d.Read(path)
}

// readSpill2: the fault mask survives a second helper level.
func readSpill2(d *kernel.Disk, path string) ([]byte, error) {
	return readSpill(d, path)
}

// persist wraps a kernel write: its error result is fault-carrying.
func persist(k *kernel.Kernel, p *kernel.Process, data []byte) error {
	return k.SysWrite(p, "out", data)
}

// A bare helper call discards every result, the fault included.
func discarded(d *kernel.Disk) {
	readSpill(d, "spill") // want `fault-injected error from readSpill is discarded`
}

// Blank-binding the error of a two-level helper.
func blankBound(d *kernel.Disk) int {
	data, _ := readSpill2(d, "spill") // want `fault-injected error from readSpill2 is discarded`
	return len(data)
}

// A dropped write fault one level up from the kernel.
func droppedWrite(k *kernel.Kernel, p *kernel.Process) {
	persist(k, p, nil) // want `fault-injected error from persist is discarded`
}

// The classic merge: the second binding overwrites the first fault
// before anything reads it.
func shadowed(d *kernel.Disk) error {
	_, err := readSpill(d, "first") // want `fault-injected error from readSpill is overwritten before it is checked`
	_, err = readSpill(d, "second")
	return err
}

// Bound but never read afterwards: the fault dies in err.
func unread(d *kernel.Disk) error {
	var err error
	if err != nil {
		return err
	}
	_, err = readSpill(d, "spill") // want `fault-injected error from readSpill is bound to err but never checked`
	return nil
}

// A reviewed waiver suppresses — the raw diagnostic must still exist
// for the suppression test to prove the machinery works.
func waived(d *kernel.Disk) {
	//viplint:allow errflow fixture: demonstrating an explained waiver
	readSpill(d, "spill")
}

// Kernel-write drops one helper level up (the direct ones are in
// syswriteerr_bad), and a bare read whose fault goes with its data.
func helperDrops(k *kernel.Kernel, p *kernel.Process, d *kernel.Disk) {
	go persist(k, p, nil)    // want `fault-injected error from persist is discarded`
	defer persist(k, p, nil) // want `fault-injected error from persist is discarded`
	d.Read("spill")          // want `fault-injected error from Disk.Read is discarded`
}
