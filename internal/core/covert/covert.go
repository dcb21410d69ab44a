// Package covert implements the n-way covert-channel co-location test
// primitive CTest of §4.3, built on contention of the host's hardware random
// number generator (RNG).
//
// All n instances under test simultaneously hammer the RNG and measure the
// contention level they observe. Because the RNG is rarely used by anyone
// else (<1% background activity), an instance observing contention of at
// least m units must share its host with at least m−1 other participants.
// One test therefore classifies all n instances at once:
//
//	CTest(i1..in) → {b1..bn},  bi = "instance i observed ≥ m units
//	                            in at least half of the rounds"
//
// With m = 2 and at most 2m−1 = 3 instances per test, a positive outcome is
// unambiguous: all positive instances share one host. The coloc package
// builds the scalable verification methodology on top of this primitive.
package covert

import (
	"fmt"
	"math"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// Config parameterizes the covert-channel tests.
type Config struct {
	// Resource is the shared hardware resource pressured by the test; the
	// zero value is the paper's low-noise RNG channel.
	Resource faas.Resource
	// Rounds is the number of contention measurements per test.
	Rounds int
	// VoteThreshold is the number of rounds that must observe contention
	// for the instance to test positive (the paper requires 30 of 60).
	VoteThreshold int
	// TestDuration is the wall-clock cost of one CTest (the paper assumes
	// ~100 ms per test when costing the conventional approach).
	TestDuration time.Duration
	// VoteBudget is the majority-vote repetition count of each CTest: the
	// whole test is repeated up to VoteBudget times and an instance's final
	// verdict is the majority of the per-repetition verdicts. 0 or 1 runs
	// the single-shot test, byte-identical to a budget-free build. Useful
	// against time-correlated channel corruption (the fault plane's misfire
	// windows span one whole test but repetitions re-draw independently).
	VoteBudget int
}

// DefaultConfig returns the paper's parameters: the RNG channel, 60 rounds,
// 30 votes, 100 ms per test.
func DefaultConfig() Config {
	return Config{Rounds: 60, VoteThreshold: 30, TestDuration: 100 * time.Millisecond}
}

// MemBusConfig returns a configuration for the memory-bus channel of the
// earlier co-location studies [62, 59]: the frequent background traffic
// demands a much higher vote threshold, and a test takes seconds instead of
// 100 ms (Varadarajan et al. report several seconds per pairwise test).
func MemBusConfig() Config {
	return Config{
		Resource:      faas.ResourceMemBus,
		Rounds:        60,
		VoteThreshold: 48,
		TestDuration:  3 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case !c.Resource.Valid():
		return fmt.Errorf("covert: unknown channel resource %d", int(c.Resource))
	case c.Rounds <= 0:
		return fmt.Errorf("covert: Rounds must be positive")
	case c.VoteThreshold <= 0 || c.VoteThreshold > c.Rounds:
		return fmt.Errorf("covert: VoteThreshold must be in [1, Rounds]")
	case c.TestDuration <= 0:
		return fmt.Errorf("covert: TestDuration must be positive")
	case c.VoteBudget < 0:
		return fmt.Errorf("covert: VoteBudget must be non-negative")
	}
	return nil
}

// Verdict is the single verdict path of the covert channel: it converts the
// number of rounds in which an instance observed sufficient contention into
// the test outcome. Centralizing it pins the robustness property the test
// relies on — with VoteThreshold at half the rounds (the paper's 30 of 60),
// no single corrupted round can flip a verdict and silently merge two host
// groups; only sustained corruption can.
func (c Config) Verdict(votes int) bool { return votes >= c.VoteThreshold }

// Stats accumulates the cost of the covert-channel activity: how many tests
// ran and how much serialized wall-clock time they consumed. The coloc
// package uses these to reproduce the §4.3 cost comparison.
type Stats struct {
	Tests        int
	PairsTested  int
	InstanceTime time.Duration // Σ over tests of (participants × duration)
}

// TestEvent describes one completed CTest for an observer.
type TestEvent struct {
	// Channel names the covert channel the test ran on ("rng", "membus",
	// "llc") — the per-channel dimension of cost ledgers.
	Channel string
	// Participants is the number of instances under test.
	Participants int
	// Positives is how many of them tested positive.
	Positives int
	// Duration is the virtual wall-clock the test consumed.
	Duration time.Duration
	// Repetition is the majority-vote repetition index of this test: 0 for
	// the first (or only) run, k for the k-th re-vote under a VoteBudget.
	// Observers meter fault-recovery spend by counting nonzero repetitions.
	Repetition int
	// MinMargin is the health of the test's least decisive verdict: the
	// minimum over participants of |votes − VoteThreshold| / Rounds. A
	// margin near zero means some participant's verdict hovered at the
	// threshold — the signature of a channel degrading under noise, and what
	// noise-hardened campaigns key their escalation on.
	MinMargin float64
}

// Sink observes every CTest a Tester runs (PairTest included, since it is a
// two-instance CTest). The attack campaign engine uses a sink to charge
// covert-channel spend to its per-stage cost ledger without wrapping the
// tester.
type Sink interface {
	ObserveTest(TestEvent)
}

// Tester executes CTest invocations against the simulated platform,
// advancing the virtual clock for each test and accounting costs.
type Tester struct {
	cfg   Config
	sched *simtime.Scheduler
	stats Stats
	sink  Sink
	// ch is the pluggable channel primitive (NewChannelTester). nil keeps
	// the historical direct-resource path: tests go straight to
	// faas.ContentionVotesInto on cfg.Resource, byte-identical to builds
	// that predate the channel layer.
	ch Channel

	// votes is per-test scratch reused across CTests. pair backs PairTest's
	// two-instance participant list; wins is majority-vote scratch for
	// VoteBudget > 1.
	votes []int
	pair  [2]*faas.Instance
	wins  []int
}

// NewTester builds a Tester. It panics on an invalid config, which is always
// a programming error at this layer.
func NewTester(sched *simtime.Scheduler, cfg Config) *Tester {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tester{cfg: cfg, sched: sched}
}

// Config returns the tester's configuration.
func (t *Tester) Config() Config { return t.cfg }

// Channel returns the pluggable channel primitive the tester drives, or nil
// on the historical direct-resource path.
func (t *Tester) Channel() Channel { return t.ch }

// channelName labels the tester's channel for observers. Both paths return
// the resource name, so ledgers are channel-labeled regardless of how the
// tester was built.
func (t *Tester) channelName() string {
	if t.ch != nil {
		return t.ch.Name()
	}
	return t.cfg.Resource.String()
}

// Stats returns the accumulated cost counters.
func (t *Tester) Stats() Stats { return t.stats }

// ResetStats zeroes the cost counters.
func (t *Tester) ResetStats() { t.stats = Stats{} }

// SetSink installs (or, with nil, removes) an observer notified after every
// CTest. Observation is free of platform side effects: the sink sees an event
// after the clock already advanced and the stats already accumulated.
func (t *Tester) SetSink(s Sink) { t.sink = s }

// CTest runs one n-way covert-channel test with contention threshold m.
// Instance i tests positive when it observed at least m units of contention
// in at least VoteThreshold rounds. The virtual clock advances by
// TestDuration. m must be at least 2: an instance always observes its own
// unit, so m = 1 would make every test positive.
//
// With VoteBudget > 1 the whole test is repeated that many times, one
// TestDuration apart, and each instance's final verdict is the majority of
// its per-repetition verdicts. Repetition is what recovers from
// time-correlated channel corruption: a misfire window flips at most one
// repetition, not the majority.
func (t *Tester) CTest(instances []*faas.Instance, m int) ([]bool, error) {
	budget := t.cfg.VoteBudget
	if budget <= 1 {
		return t.singleCTest(instances, m, 0)
	}
	if cap(t.wins) < len(instances) {
		t.wins = make([]int, len(instances))
	}
	wins := t.wins[:len(instances)]
	for i := range wins {
		wins[i] = 0
	}
	for rep := 0; rep < budget; rep++ {
		res, err := t.singleCTest(instances, m, rep)
		if err != nil {
			return nil, err
		}
		for i, positive := range res {
			if positive {
				wins[i]++
			}
		}
	}
	out := make([]bool, len(instances))
	for i, w := range wins {
		out[i] = w > budget/2
	}
	return out, nil
}

// singleCTest is one un-voted CTest execution; rep labels the majority-vote
// repetition for observers.
func (t *Tester) singleCTest(instances []*faas.Instance, m, rep int) ([]bool, error) {
	if m < 2 {
		return nil, fmt.Errorf("covert: contention threshold m=%d, need m >= 2", m)
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("covert: CTest of zero instances")
	}
	var votes []int
	var err error
	if t.ch != nil {
		votes, err = t.ch.Votes(instances, m, t.cfg.Rounds, t.votes)
	} else {
		votes, err = faas.ContentionVotesInto(t.cfg.Resource, instances, m, t.cfg.Rounds, t.votes)
	}
	if err != nil {
		return nil, err
	}
	t.votes = votes
	t.sched.Advance(t.cfg.TestDuration)
	t.stats.Tests++
	t.stats.PairsTested += len(instances) * (len(instances) - 1) / 2
	t.stats.InstanceTime += time.Duration(len(instances)) * t.cfg.TestDuration

	out := make([]bool, len(instances))
	positives := 0
	minMargin := 1.0
	for i, v := range votes {
		out[i] = t.cfg.Verdict(v)
		if out[i] {
			positives++
		}
		if m := math.Abs(float64(v)-float64(t.cfg.VoteThreshold)) / float64(t.cfg.Rounds); m < minMargin {
			minMargin = m
		}
	}
	if t.sink != nil {
		t.sink.ObserveTest(TestEvent{
			Channel:      t.channelName(),
			Participants: len(instances),
			Positives:    positives,
			Duration:     t.cfg.TestDuration,
			Repetition:   rep,
			MinMargin:    minMargin,
		})
	}
	return out, nil
}

// PairTest is the conventional pairwise covert-channel test: it reports
// whether the two instances are co-located.
func (t *Tester) PairTest(a, b *faas.Instance) (bool, error) {
	t.pair[0], t.pair[1] = a, b
	res, err := t.CTest(t.pair[:], 2)
	if err != nil {
		return false, err
	}
	return res[0] && res[1], nil
}

// MaxGroupSize returns the largest group CTest can classify unambiguously at
// threshold m: with 2m−1 or fewer instances, any positive set of size ≥ m
// must share a single host (§4.3).
func MaxGroupSize(m int) int { return 2*m - 1 }
