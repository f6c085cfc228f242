// Package maporder_ok is a viplint fixture: the approved pattern —
// collect map keys, sort, then emit. maporder must stay silent here.
package maporder_ok

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

func sortedKeys(w io.Writer, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, counts[k])
	}
}

func sortedSlice(w io.Writer, counts map[string]int) {
	type kv struct {
		k string
		v int
	}
	var rows []kv
	for k, v := range counts {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	for _, r := range rows {
		fmt.Fprintf(w, "%s %d\n", r.k, r.v)
	}
}

// Ranging a slice into a sink is fine: slices have deterministic order.
func sliceOrder(w io.Writer, rows []string) {
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}

// The slices package's sorts reorder in place, like sort's.
func slicesSort(w io.Writer, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fmt.Fprintln(w, keys)
}

func slicesSortFunc(w io.Writer, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, strings.Compare)
	fmt.Fprintln(w, keys)
}

func slicesSortStableFunc(w io.Writer, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortStableFunc(keys, func(a, b string) int { return len(a) - len(b) })
	fmt.Fprintln(w, keys)
}
