package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -fig value must fail loudly instead of printing nothing
// and exiting 0; the names of the retired bench figures are unknown.
func TestUnknownFigureExits2(t *testing.T) {
	for _, fig := range []string{"4", "smp", "fleet", "membatch", "tracebatch", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig", fig}, &stdout, &stderr); code != 2 {
			t.Errorf("-fig %q: exit %d, want 2", fig, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "want 1, 2, 3, activity or all") {
			t.Errorf("-fig %q: stdout %q, stderr %q", fig, stdout.String(), stderr.String())
		}
	}
}
