package covert

import (
	"fmt"
	"slices"
	"time"

	"eaao/internal/faas"
	"eaao/internal/simtime"
)

// This file makes the covert channel a pluggable primitive, the third leg of
// the repo's plug-in architecture next to placement policies and launch
// strategies. A channel is nothing more than a Config: its Resource names the
// contention family (one row of the faas ChannelModel registry) and its
// rounds, threshold and test duration are tuned for that family's noise.
// A Runner is the full testing surface verification consumes, and
// MultiTester majority-combines several channels so that corruption confined
// to one resource family is outvoted by the healthy ones.

// LLCConfig returns a configuration for the LLC channel (Zhao & Fletcher): a
// test costs 20 ms instead of the RNG's 100, but background evictions are
// common (4% on a quiet host, worse with every bystander tenant), so the vote
// threshold sits well above half to keep loaded hosts from voting their way
// to false positives.
func LLCConfig() Config {
	return Config{
		Resource:      faas.ResourceLLC,
		Rounds:        60,
		VoteThreshold: 36,
		TestDuration:  20 * time.Millisecond,
	}
}

// CombinedChannelName selects the majority-combined multi-channel tester in
// RunnerFor and the CLI's -channel flag; it names a MultiTester, not a
// single Config.
const CombinedChannelName = "combined"

// ChannelNames lists every name RunnerFor resolves (the empty string, the
// default, is the RNG channel).
func ChannelNames() []string { return []string{"rng", "llc", "membus", CombinedChannelName} }

// ValidChannel reports whether name resolves in RunnerFor: one of
// ChannelNames, or empty for the default.
func ValidChannel(name string) bool {
	return name == "" || slices.Contains(ChannelNames(), name)
}

// ConfigByName resolves a single channel's tuned configuration from its
// name. The empty string resolves to the default RNG channel; "combined" is
// not a single channel — use RunnerFor for it.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "", "rng":
		return DefaultConfig(), nil
	case "llc":
		return LLCConfig(), nil
	case "membus":
		return MemBusConfig(), nil
	}
	return Config{}, fmt.Errorf("covert: unknown channel %q (rng, llc, membus)", name)
}

// Runner is the pluggable covert-channel testing surface: everything
// verification (coloc.Tester) consumes plus the sink/stats hooks the attack
// campaign charges its ledger through. *Tester and *MultiTester both satisfy
// it.
type Runner interface {
	CTest(instances []*faas.Instance, m int) ([]bool, error)
	PairTest(a, b *faas.Instance) (bool, error)
	Config() Config
	Stats() Stats
	ResetStats()
	SetSink(Sink)
}

// RunnerFor resolves a channel selector to a ready Runner: "" or "rng" (the
// byte-identical historical default), "llc", "membus", or "combined" (a
// MultiTester majority-combining rng, llc and membus). voteBudget applies
// per channel.
func RunnerFor(name string, sched *simtime.Scheduler, voteBudget int) (Runner, error) {
	return runnerFor(name, sched, voteBudget, nil)
}

// CalibratedRunnerFor resolves a channel selector exactly like RunnerFor but
// re-derives every member channel's vote threshold against the live world:
// the probe instance samples each channel's background rate over sampleRounds
// solo rounds (Calibrate) and the threshold comes from the measurement
// instead of the quiet-world constant. On a busy host the measured background
// includes real bystander noise, so the derived threshold is the one an
// attacker operating in a living cloud would actually use. It fails when a
// channel's background is too high to separate (Calibrate's error).
func CalibratedRunnerFor(name string, sched *simtime.Scheduler, probe *faas.Instance, sampleRounds, voteBudget int) (Runner, error) {
	return runnerFor(name, sched, voteBudget, func(base Config) (Config, error) {
		return Calibrate(base, probe, sampleRounds)
	})
}

// runnerFor is the one name → configs dispatch behind RunnerFor and
// CalibratedRunnerFor: it resolves name to its member configurations, passes
// each through tune (nil keeps the stock configuration) in member order, and
// assembles a Tester, or a MultiTester for the combined selector.
func runnerFor(name string, sched *simtime.Scheduler, voteBudget int, tune func(Config) (Config, error)) (Runner, error) {
	var cfgs []Config
	if name == CombinedChannelName {
		cfgs = []Config{DefaultConfig(), LLCConfig(), MemBusConfig()}
	} else {
		cfg, err := ConfigByName(name)
		if err != nil {
			return nil, fmt.Errorf("covert: unknown channel %q (rng, llc, membus, combined)", name)
		}
		cfgs = []Config{cfg}
	}
	if tune != nil {
		for i := range cfgs {
			var err error
			if cfgs[i], err = tune(cfgs[i]); err != nil {
				return nil, err
			}
		}
	}
	if name == CombinedChannelName {
		return NewMultiTester(sched, voteBudget, cfgs...), nil
	}
	cfg := cfgs[0]
	cfg.VoteBudget = voteBudget
	return NewTester(sched, cfg), nil
}

// Rebudgeter is implemented by runners that can clone themselves at a new
// majority-vote budget while preserving their channels and (possibly
// calibrated) thresholds — the hook noise-hardened campaigns escalate
// through when a channel's margins collapse under load.
type Rebudgeter interface {
	Rebudget(voteBudget int) Runner
}

// Rebudget returns a new Tester on the same configuration with the vote
// budget replaced. Accumulated stats and the sink do not carry over.
func (t *Tester) Rebudget(voteBudget int) Runner { return t.withBudget(voteBudget) }

// withBudget is Rebudget with the concrete type.
func (t *Tester) withBudget(voteBudget int) *Tester {
	cfg := t.cfg
	cfg.VoteBudget = voteBudget
	return NewTester(t.sched, cfg)
}

// MultiTester is the majority-combined multi-channel tester: every CTest
// runs once per member channel and each instance's final verdict is the
// majority of the per-channel verdicts. Corruption confined to one resource
// family — a targeted misfire storm, a busy LLC — is outvoted by the healthy
// channels, at the cost of paying every channel's test duration.
type MultiTester struct {
	children []*Tester
	combined Config
	stats    Stats
	wins     []int
	pair     [2]*faas.Instance
}

// NewMultiTester builds a MultiTester over the given channel
// configurations, each driving its own Tester with voteBudget applied.
func NewMultiTester(sched *simtime.Scheduler, voteBudget int, cfgs ...Config) *MultiTester {
	if len(cfgs) == 0 {
		panic("covert: MultiTester needs at least one channel")
	}
	children := make([]*Tester, len(cfgs))
	for i, cfg := range cfgs {
		cfg.VoteBudget = voteBudget
		children[i] = NewTester(sched, cfg)
	}
	return multiFromChildren(children)
}

// multiFromChildren assembles a MultiTester around already-built member
// testers (NewMultiTester's tail, shared with the re-budgeted construction
// path).
func multiFromChildren(children []*Tester) *MultiTester {
	m := &MultiTester{children: children}
	// The combined Config is synthetic: verification layers read only
	// TestDuration (the wall cost of one combined test, the sum over
	// channels), so the remaining fields come from the first channel.
	m.combined = m.children[0].Config()
	m.combined.TestDuration = 0
	for _, c := range m.children {
		m.combined.TestDuration += c.Config().TestDuration
	}
	return m
}

// Children returns the per-channel member testers; their Stats split the
// combined cost by channel.
func (m *MultiTester) Children() []*Tester { return m.children }

// Config returns the synthetic combined configuration (TestDuration is the
// per-test wall cost summed over member channels).
func (m *MultiTester) Config() Config { return m.combined }

// Stats returns the combined-test counters: Tests counts combined
// invocations (each of which ran one CTest per member channel).
func (m *MultiTester) Stats() Stats { return m.stats }

// ResetStats zeroes the combined and per-channel counters.
func (m *MultiTester) ResetStats() {
	m.stats = Stats{}
	for _, c := range m.children {
		c.ResetStats()
	}
}

// SetSink installs the observer on every member tester, so the sink sees one
// channel-labeled event per member per combined test. MultiTester emits no
// synthetic event of its own — observers meter true per-channel executions.
func (m *MultiTester) SetSink(s Sink) {
	for _, c := range m.children {
		c.SetSink(s)
	}
}

// CTest runs the combined test: one CTest per member channel, each advancing
// the clock by its own TestDuration, and a per-instance majority across the
// per-channel verdicts.
func (m *MultiTester) CTest(instances []*faas.Instance, thresh int) ([]bool, error) {
	if cap(m.wins) < len(instances) {
		m.wins = make([]int, len(instances))
	}
	wins := m.wins[:len(instances)]
	for i := range wins {
		wins[i] = 0
	}
	for _, c := range m.children {
		res, err := c.CTest(instances, thresh)
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
		out[i] = 2*w > len(m.children)
	}
	m.stats.Tests++
	m.stats.PairsTested += len(instances) * (len(instances) - 1) / 2
	m.stats.InstanceTime += time.Duration(len(instances)) * m.combined.TestDuration
	return out, nil
}

// Rebudget returns a new MultiTester whose member testers share channels and
// thresholds with this one but carry the new vote budget.
func (m *MultiTester) Rebudget(voteBudget int) Runner {
	children := make([]*Tester, len(m.children))
	for i, c := range m.children {
		children[i] = c.withBudget(voteBudget)
	}
	return multiFromChildren(children)
}

// PairTest reports whether the two instances are co-located by combined
// majority.
func (m *MultiTester) PairTest(a, b *faas.Instance) (bool, error) {
	m.pair[0], m.pair[1] = a, b
	res, err := m.CTest(m.pair[:], 2)
	if err != nil {
		return false, err
	}
	return res[0] && res[1], nil
}
