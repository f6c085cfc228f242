// Package errflow_ok: every fault-injected error reaches a read —
// checked branches, wrapping reassignments, loop-head checks, and
// closure captures must all stay silent, as must a disk append, which
// has no fault point. Kernel writes handled directly are in
// syswriteerr_ok.
package errflow_ok

import (
	"fmt"

	"viprof/internal/kernel"
)

func readSpill(d *kernel.Disk, path string) ([]byte, error) {
	return d.Read(path)
}

// The plain checked shape.
func checked(d *kernel.Disk) []byte {
	data, err := readSpill(d, "spill")
	if err != nil {
		return nil
	}
	return data
}

func annotate(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("spill: %v", err)
}

// err = annotate(err) evaluates the right-hand side first: a use, not
// a shadow — the fault is wrapped, not lost.
func wrapped(d *kernel.Disk) error {
	_, err := readSpill(d, "spill")
	err = annotate(err)
	return err
}

// Retry loop: the binding's next read is at the top of the next
// iteration, before the statement that rebinds it.
func pollUntilFault(d *kernel.Disk) error {
	var err error
	for {
		if err != nil {
			return err
		}
		_, err = readSpill(d, "spill")
	}
}

// Captured by a closure: the read happens after this function returns,
// where the linear chain cannot see it.
func deferredCheck(d *kernel.Disk) func() error {
	var err error
	_, err = readSpill(d, "spill")
	return func() error { return err }
}

// Disk.Append returns nothing and injects no fault: a bare call drops
// nothing.
func appendOnly(d *kernel.Disk, data []byte) {
	d.Append("var/log/out", data)
}
