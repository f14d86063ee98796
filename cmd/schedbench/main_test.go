package main

import (
	"slices"
	"testing"
)

// TestParseBands requires every -bands field to be a whole integer: a
// field with trailing input is an error, not a silently different link
// count. Range checks against the machine happen in the grid itself.
func TestParseBands(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"4,1", []int{4, 1}},
		{" 2 , 3 ", []int{2, 3}},
		{"", nil},
	} {
		got, err := parseBands(c.in)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseBands(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"1.5", "4x", "x4", "4,one", "2 3", "0x4"} {
		if got, err := parseBands(bad); err == nil {
			t.Errorf("parseBands(%q) = %v, want an error", bad, got)
		}
	}
}
