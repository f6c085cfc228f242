// Package maporder_drain_ok is the clean counterpart to
// maporder_drain_bad: the real per-CPU drain protocol (daemon.go's
// aggregateShards/flush shape). Worker goroutines fold shard samples
// into shard-local maps, the merge is commutative (+= into the shared
// aggregate), and anything that reaches a writer goes through a sort
// first. None of these may be flagged.
package maporder_drain_ok

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

type key struct {
	CPU int
	Off uint64
}

func keyLess(a, b key) bool {
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	return a.CPU < b.CPU
}

// The drain shape the daemon actually uses: goroutine per shard into a
// shard-local map, deterministic ascending-index merge, and a sort
// between the merged map and the writer.
func drainSorted(w io.Writer, shards []map[key]uint64) {
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
	merged := make(map[key]uint64)
	for _, local := range locals {
		// Merging map ranges into another map is commutative: no order
		// escapes, so no sort is owed here.
		for k, n := range local {
			merged[k] += n
		}
	}
	var keys []key
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for _, k := range keys {
		fmt.Fprintf(w, "%d %d %d\n", k.CPU, k.Off, merged[k])
	}
}

// A goroutine may collect captured keys in range order as long as the
// parent sorts after the join, before anything persists: the
// sort-after-join twin of maporder_drain_bad's goroutineCollectedKeys.
func goroutineCollectedThenSorted(w io.Writer, merged map[key]uint64) {
	var keys []key
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range merged {
			keys = append(keys, k)
		}
	}()
	wg.Wait()
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	fmt.Fprintln(w, keys)
}

// The literal sorts what it collected before it returns: nothing
// ordered by the map reaches the parent.
func calledLiteralSortsFirst(w io.Writer, merged map[key]uint64) {
	var keys []key
	func() {
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	}()
	fmt.Fprintln(w, keys)
}

// A running literal's own locals are not captures: map order it
// collects into one and then drops stays inside the literal.
func literalLocalDropped(w io.Writer, merged map[key]uint64) {
	go func() {
		var keys []key
		for k := range merged {
			keys = append(keys, k)
		}
		keys = nil
		fmt.Fprintln(w, keys)
	}()
}
