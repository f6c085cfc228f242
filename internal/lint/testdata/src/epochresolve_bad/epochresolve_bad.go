// Package epochresolve_bad is a viplint fixture: every raw code-map
// access pattern that epoch-resolve must forbid outside internal/core,
// plus a properly waived occurrence.
package epochresolve_bad

import (
	"viprof/internal/addr"
	"viprof/internal/core"
)

func rawEntries(c *core.MapChain, epoch int) []core.MapEntry {
	return c.Entries(epoch) // want `MapChain.Entries outside internal/core`
}

func directIndex(entries []core.MapEntry, i int) core.MapEntry {
	return entries[i] // want `direct indexing of code-map entries outside internal/core`
}

func handScan(entries []core.MapEntry, pc addr.Address) (core.MapEntry, bool) {
	for _, e := range entries { // want `scanning code-map entries outside internal/core`
		if e.Start <= pc && pc < e.Start+addr.Address(e.Size) {
			return e, true
		}
	}
	return core.MapEntry{}, false
}

func waived(c *core.MapChain, epoch int) int {
	//viplint:allow epoch-resolve fixture: diagnostic dump of the raw chain
	return len(c.Entries(epoch))
}
