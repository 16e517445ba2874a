package main

import (
	"io"
	"testing"
)

// TestRunExitCodes pins the command's whole surface: three flags, two
// scales, the paper registry and nothing else.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		exp, scale string
		list       bool
		want       int
	}{
		{"no -exp", "", "full", false, 2},
		{"-list", "", "full", true, 0},
		{"unknown experiment", "nope", "test", false, 2},
		{"retired perf experiment", "discover", "test", false, 2},
		{"unknown scale", "fig18", "huge", false, 2},
		{"retired gen scale", "fig18", "gen1m", false, 2},
		{"paper figure", "fig18", "test", false, 0},
	}
	for _, c := range cases {
		if got := run(t.Context(), io.Discard, c.exp, c.scale, c.list); got != c.want {
			t.Errorf("%s: run(%q, %q, %v) = %d, want %d", c.name, c.exp, c.scale, c.list, got, c.want)
		}
	}
}
