package main

import (
	"maps"
	"slices"
	"testing"
)

func TestParseModes(t *testing.T) {
	for _, tc := range []struct {
		exp, baseline string
		want          []string // nil: an error
	}{
		{"all", "", modes},
		{"hotpath", "BENCH_hotpath.baseline.json", []string{"hotpath"}},
		{" repair, rebalance", "", []string{"rebalance", "repair"}},
		{"all", "BENCH_hotpath.baseline.json", modes},
		{"hotpth", "", nil},
		{"", "", nil},
		{"write-cost", "", nil},
		{"multigateway", "", nil},
		{"repair", "BENCH_hotpath.baseline.json", nil},
	} {
		got, err := parseModes(tc.exp, tc.baseline)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseModes(%q, %q) = %v, want an error", tc.exp, tc.baseline, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseModes(%q, %q): %v", tc.exp, tc.baseline, err)
			continue
		}
		if names := slices.Sorted(maps.Keys(got)); !slices.Equal(names, slices.Sorted(slices.Values(tc.want))) {
			t.Errorf("parseModes(%q, %q) = %v, want %v", tc.exp, tc.baseline, names, tc.want)
		}
	}
}
