// Package maporder_bad is a viplint fixture: map iteration order
// reaching output sinks, in every shape maporder must catch.
package maporder_bad

import (
	"fmt"
	"io"
	"sort"
)

// Sink lexically inside the map range: each write lands in map order.
func sinkInRange(w io.Writer, counts map[string]int) {
	for k, v := range counts {
		fmt.Fprintf(w, "%s %d\n", k, v) // want `Fprintf called inside iteration over a map`
	}
}

// Slice populated in map order reaches the sink with no sort.
func unsortedKeys(w io.Writer, counts map[string]int) {
	var keys []string
	for k := range counts { // want `keys is ordered by map iteration and reaches Fprintln`
		keys = append(keys, k)
	}
	fmt.Fprintln(w, keys)
}

// Two-hop propagation: the map-ordered slice is transformed into a
// second slice before reaching the sink. Order still leaks.
func laundered(w io.Writer, counts map[string]int) {
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	var lines []string
	for _, k := range keys { // want `lines is ordered by map iteration and reaches Fprintln`
		lines = append(lines, k+"\n")
	}
	fmt.Fprintln(w, lines)
}

// Suppressed: the waiver names the pass and gives a reason, placed on
// the line directly above the flagged sink call.
func waived(w io.Writer, counts map[string]int) {
	for k := range counts {
		//viplint:allow maporder fixture: output order irrelevant for this debug dump
		fmt.Fprintln(w, k)
	}
}

// Functions of package sort that only read the slice are not sorts:
// the keys reach the sink in map order. (sort.Find and sort.IsSorted
// take a length or an Interface, never the slice itself, so they could
// not sanitize it either way.)
func searchIsNotSort(w io.Writer, counts map[string]int) {
	var keys []string
	for k := range counts { // want `keys is ordered by map iteration and reaches Fprintln`
		keys = append(keys, k)
	}
	_ = sort.SearchStrings(keys, "x")
	fmt.Fprintln(w, keys)
}

func areSortedIsNotSort(w io.Writer, counts map[string]int) {
	var keys []string
	for k := range counts { // want `keys is ordered by map iteration and reaches Fprintln`
		keys = append(keys, k)
	}
	if !sort.StringsAreSorted(keys) {
		fmt.Fprintln(w, keys)
	}
}
