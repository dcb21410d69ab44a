package covert

import (
	"testing"

	"eaao/internal/faas"
)

// BenchmarkCTest is the CTest layer's entry in the performance ledger: one
// RNG-channel CTest (60 contention rounds) per iteration, reported as
// ns/CTest. Churn is off, so the 100 ms of virtual time each test advances
// never changes who participates.
func BenchmarkCTest(b *testing.B) {
	p := testProfile()
	p.InstanceChurnPerHour = 0
	pl, insts := launchWorld(b, 1, 100, p)
	coA, coB, farA, farB := findPairs(b, insts)
	cases := []struct {
		name  string
		parts []*faas.Instance
		m     int
	}{
		{"pair-same-host", []*faas.Instance{insts[coA], insts[coB]}, 2},
		{"pair-cross-host", []*faas.Instance{insts[farA], insts[farB]}, 2},
		{"n5", insts[:5], 3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tester := NewTester(pl.Scheduler(), DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.CTest(c.parts, c.m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/CTest")
			for _, inst := range c.parts {
				if inst.State() == faas.StateTerminated {
					b.Fatal("a participant terminated mid-benchmark; the workload drifted")
				}
			}
		})
	}
}
