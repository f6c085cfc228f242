package main

import "testing"

func TestParseWindow(t *testing.T) {
	for _, c := range []struct {
		arg      string
		from, to uint64
	}{
		{":", 0, ^uint64(0)},
		{"5:", 5, ^uint64(0)},
		{":5", 0, 5},
		{"0:18446744073709551615", 0, ^uint64(0)},
		{"100000:300000", 100000, 300000},
	} {
		from, to, err := parseWindow(c.arg)
		if err != nil || from != c.from || to != c.to {
			t.Errorf("parseWindow(%q) = %d, %d, %v; want %d, %d", c.arg, from, to, err, c.from, c.to)
		}
	}
	for _, arg := range []string{"5:5", "10:5", "a:1", "1:b", "", "5", "-1:5", "1:18446744073709551616"} {
		if from, to, err := parseWindow(arg); err == nil {
			t.Errorf("parseWindow(%q) = %d, %d; want an error", arg, from, to)
		}
	}
}
