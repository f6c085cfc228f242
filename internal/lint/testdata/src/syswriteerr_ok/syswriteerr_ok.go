// Package syswriteerr_ok is a viplint fixture: kernel write errors
// handled properly. errflow must stay silent here.
package syswriteerr_ok

import "viprof/internal/kernel"

func propagated(k *kernel.Kernel, p *kernel.Process, data []byte) error {
	return k.SysWrite(p, "var/log/out", data)
}

func checked(k *kernel.Kernel, p *kernel.Process, data []byte) bool {
	if err := k.SysWriteSync(p, "var/log/out", data); err != nil {
		return false
	}
	return k.SysRename(p, "var/tmp/a", "var/lib/a") == nil
}

// Bound to a named variable first: the blank read is an explicit,
// visible discard.
func namedDiscard(k *kernel.Kernel, p *kernel.Process, data []byte) {
	err := k.SysWrite(p, "var/log/out", data)
	_ = err
}
