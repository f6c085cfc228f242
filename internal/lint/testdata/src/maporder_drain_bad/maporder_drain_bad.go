// Package maporder_drain_bad is a viplint fixture for the shapes the
// SMP per-CPU shard drain must not regress into: worker goroutines
// that capture maps and feed sinks in iteration order. Concurrency
// must hide nothing from the maporder pass — a range inside a `go
// func` literal is as ordered-by-map as one in straight-line code.
package maporder_drain_bad

import (
	"fmt"
	"io"
	"sync"
)

type key struct {
	CPU int
	Off uint64
}

// A drain goroutine captures the merged aggregate map and streams it
// straight to the writer: every flush would persist in map order.
func goroutineCapturedEmit(w io.Writer, merged map[key]uint64) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k, n := range merged {
			fmt.Fprintf(w, "%d %d %d\n", k.CPU, k.Off, n) // want `Fprintf called inside iteration over a map`
		}
	}()
	wg.Wait()
}

// Per-shard workers aggregate locally (fine so far), but the merge
// walks each worker's map and appends flush lines in range order.
func mergeInRangeOrder(w io.Writer, shards []map[key]uint64) {
	locals := make([]map[key]uint64, len(shards))
	var wg sync.WaitGroup
	for ci := range shards {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			local := make(map[key]uint64)
			for k, n := range shards[ci] {
				local[k] += n
			}
			locals[ci] = local
		}(ci)
	}
	wg.Wait()
	var lines []string
	for _, local := range locals {
		for k, n := range local {
			lines = append(lines, fmt.Sprintf("%d %d %d\n", k.CPU, k.Off, n))
		}
	}
	// lines carries map order, so ranging it is iterating the maps.
	for _, l := range lines {
		fmt.Fprint(w, l) // want `Fprint called inside iteration over a map`
	}
}

// The worker goroutine collects keys in range order into a slice
// captured from the parent, and the parent emits after the join. The
// literal runs (go), so its write to the captured slice reaches the
// parent's read as map order, the way a struct field would.
func goroutineCollectedKeys(w io.Writer, merged map[key]uint64) {
	var keys []key
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range merged { // want `keys is ordered by map iteration and reaches Fprintln without an intervening sort`
			keys = append(keys, k)
		}
	}()
	wg.Wait()
	fmt.Fprintln(w, keys)
}

// The same escape through an immediately called literal, two literals
// deep.
func nestedLiteralKeys(w io.Writer, merged map[key]uint64) {
	var keys []key
	func() {
		func() {
			for k := range merged { // want `keys is ordered by map iteration and reaches Fprintln without an intervening sort`
				keys = append(keys, k)
			}
		}()
	}()
	fmt.Fprintln(w, keys)
}

// KNOWN MISS, pinned deliberately: a literal handed to a helper as a
// callback runs at no point the walk can place, so its writes to
// captured variables stay local even when the helper calls it at once.
// No want comment: if the pass learns to follow callbacks, this fixture
// fails loudly and the want should be added.
func callbackCollectedKeys(w io.Writer, merged map[key]uint64, each func(func())) {
	var keys []key
	each(func() {
		for k := range merged {
			keys = append(keys, k)
		}
	})
	fmt.Fprintln(w, keys)
}
