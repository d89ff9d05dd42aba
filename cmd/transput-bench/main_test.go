package main

import "testing"

// TestSuiteNamesStable keeps the file set itself from drifting: tools
// downstream (Makefile bench targets, EXPERIMENTS.md) key on these
// exact names.
func TestSuiteNamesStable(t *testing.T) {
	want := []string{
		"BENCH_kernel.json",
		"BENCH_transput.json",
		"BENCH_codec.json",
		"BENCH_fusion.json",
		"BENCH_gateway.json",
		"BENCH_transport.json",
	}
	if len(suiteNames) != len(want) {
		t.Fatalf("suite has %d files, want %d", len(suiteNames), len(want))
	}
	for i, w := range want {
		if suiteNames[i] != w {
			t.Errorf("suiteNames[%d] = %q, want %q", i, suiteNames[i], w)
		}
	}
}
