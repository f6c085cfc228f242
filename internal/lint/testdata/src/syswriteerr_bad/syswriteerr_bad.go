// Package syswriteerr_bad is a viplint fixture: every way of
// discarding a kernel write error that errflow must catch, plus a
// properly waived occurrence.
package syswriteerr_bad

import "viprof/internal/kernel"

func bareCall(k *kernel.Kernel, p *kernel.Process, data []byte) {
	k.SysWrite(p, "var/log/out", data) // want `fault-injected error from SysWrite is discarded`
}

func blankAssign(k *kernel.Kernel, p *kernel.Process, data []byte) {
	_ = k.SysWriteSync(p, "var/log/out", data) // want `fault-injected error from SysWriteSync is discarded`
}

func bareRename(k *kernel.Kernel, p *kernel.Process) {
	k.SysRename(p, "var/tmp/a", "var/lib/a") // want `fault-injected error from SysRename is discarded`
}

func inGoroutine(k *kernel.Kernel, p *kernel.Process, data []byte) {
	go k.SysWrite(p, "var/log/out", data) // want `fault-injected error from SysWrite is discarded`
}

func deferred(k *kernel.Kernel, p *kernel.Process, data []byte) {
	defer k.SysWrite(p, "var/log/out", data) // want `fault-injected error from SysWrite is discarded`
}

// The stats-record waiver shape the tree uses: the record's absence is
// itself the signal.
func waived(k *kernel.Kernel, p *kernel.Process, data []byte) {
	//viplint:allow errflow fixture: stats absence is the crash signal here
	_ = k.SysWrite(p, "var/lib/x.stats", data)
}
