package covert

import (
	"testing"

	"eaao/internal/faas"
)

// TestMinMarginReported pins the TestEvent margin signal: on a quiet world
// verdicts are decisive — a separated pair votes near zero and a co-located
// pair near Rounds, both far from the threshold — so the reported minimum
// margin is comfortably large.
func TestMinMarginReported(t *testing.T) {
	pl, insts := testWorld(t, 3, 100)
	coA, coB, farA, farB := findPairs(t, insts)
	tester := NewTester(pl.Scheduler(), DefaultConfig())
	sink := &recordingSink{}
	tester.SetSink(sink)
	for _, pair := range [][2]int{{coA, coB}, {farA, farB}} {
		if _, err := tester.PairTest(insts[pair[0]], insts[pair[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.events) != 2 {
		t.Fatalf("saw %d events", len(sink.events))
	}
	for i, ev := range sink.events {
		if ev.MinMargin < 0.3 || ev.MinMargin > 1 {
			t.Errorf("event %d: quiet-world margin = %.3f, want decisive (≥ 0.3)", i, ev.MinMargin)
		}
	}
}

// TestCalibratedRunnerFor checks the calibrated construction path: each
// resolved runner carries a live-derived threshold and the requested vote
// budget, and "combined" calibrates every member channel.
func TestCalibratedRunnerFor(t *testing.T) {
	pl, insts := testWorld(t, 5, 1)
	probe := insts[0]

	r, err := CalibratedRunnerFor("llc", pl.Scheduler(), probe, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	tester, ok := r.(*Tester)
	if !ok {
		t.Fatalf("llc runner is %T", r)
	}
	cfg := tester.Config()
	if cfg.VoteBudget != 3 {
		t.Errorf("VoteBudget = %d", cfg.VoteBudget)
	}
	if cfg.Resource != faas.ResourceLLC {
		t.Errorf("channel = %v", cfg.Resource)
	}
	if cfg.VoteThreshold < 1 || cfg.VoteThreshold > cfg.Rounds {
		t.Errorf("calibrated threshold %d out of range", cfg.VoteThreshold)
	}

	m, err := CalibratedRunnerFor(CombinedChannelName, pl.Scheduler(), probe, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	mt, ok := m.(*MultiTester)
	if !ok {
		t.Fatalf("combined runner is %T", m)
	}
	if len(mt.Children()) != 3 {
		t.Fatalf("combined has %d children", len(mt.Children()))
	}

	if _, err := CalibratedRunnerFor("hyperlane", pl.Scheduler(), probe, 100, 1); err == nil {
		t.Error("unknown channel calibrated")
	}
}

// TestRebudget checks the escalation hook: the clone carries the new vote
// budget while preserving channel and thresholds, and the original is
// untouched.
func TestRebudget(t *testing.T) {
	pl, _ := testWorld(t, 6, 1)
	r, err := RunnerFor("llc", pl.Scheduler(), 1)
	if err != nil {
		t.Fatal(err)
	}
	orig := r.(*Tester)
	clone := orig.Rebudget(5).(*Tester)
	if clone.Config().VoteBudget != 5 || orig.Config().VoteBudget != 1 {
		t.Errorf("budgets = %d/%d", clone.Config().VoteBudget, orig.Config().VoteBudget)
	}
	if clone.Config().Resource != orig.Config().Resource {
		t.Error("channel not preserved")
	}
	if clone.Config().VoteThreshold != orig.Config().VoteThreshold {
		t.Error("threshold not preserved")
	}

	m, err := RunnerFor(CombinedChannelName, pl.Scheduler(), 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := m.(*MultiTester).Rebudget(3).(*MultiTester)
	if len(mc.Children()) != 3 {
		t.Fatalf("rebudgeted combined has %d children", len(mc.Children()))
	}
	for _, c := range mc.Children() {
		if c.Config().VoteBudget != 3 {
			t.Errorf("child budget = %d", c.Config().VoteBudget)
		}
	}
	if mc.Config().TestDuration != m.Config().TestDuration {
		t.Error("combined test duration changed")
	}

	// Both runner kinds satisfy the escalation interface.
	for _, run := range []Runner{orig, m} {
		if _, ok := run.(Rebudgeter); !ok {
			t.Errorf("%T is not a Rebudgeter", run)
		}
	}
}
