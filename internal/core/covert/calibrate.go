package covert

import (
	"fmt"
	"math"

	"eaao/internal/faas"
)

// Calibrate empirically measures the background contention rate of a shared
// resource from a probe instance (ideally one known to be alone on its host,
// e.g. freshly launched in a quiet account) and derives a CTest
// configuration whose vote threshold separates background noise from true
// co-location with comfortable margin.
//
// The derivation places the threshold midway (in standard deviations)
// between the background distribution Binomial(rounds, bg) and the
// co-located distribution (essentially Binomial(rounds, ≈1)): a co-located
// instance sees its partner's pressure every round, a lone instance only the
// background rate.
func Calibrate(base Config, probe *faas.Instance, sampleRounds int) (Config, error) {
	if sampleRounds <= 0 {
		return Config{}, fmt.Errorf("covert: calibration needs sample rounds")
	}
	// A lone probe observes itself (1) plus background; ≥2 means a
	// background event (or an actual co-resident pressurer, which the caller
	// is responsible for excluding). Calibration does not advance the clock,
	// so the whole sample is one batched test.
	hits, err := faas.ContentionVotesInto(base.Resource, []*faas.Instance{probe}, 2, sampleRounds, nil)
	if err != nil {
		return Config{}, err
	}
	return deriveThreshold(base, float64(hits[0])/float64(sampleRounds))
}

// CalibrateChannel is Calibrate for a pluggable channel primitive: the
// background rate is sampled through the channel's own test primitive and
// the threshold derived from the channel's tuned base configuration. For the
// RNG channel this draws and derives identically to
// Calibrate(DefaultConfig(), ...).
func CalibrateChannel(ch Channel, probe *faas.Instance, sampleRounds int) (Config, error) {
	if sampleRounds <= 0 {
		return Config{}, fmt.Errorf("covert: calibration needs sample rounds")
	}
	hits, err := ch.Votes([]*faas.Instance{probe}, 2, sampleRounds, nil)
	if err != nil {
		return Config{}, err
	}
	return deriveThreshold(ch.Config(), float64(hits[0])/float64(sampleRounds))
}

// deriveThreshold turns a measured background rate into a calibrated
// configuration (the math shared by Calibrate and CalibrateChannel).
func deriveThreshold(base Config, bg float64) (Config, error) {
	if bg >= 0.9 {
		return Config{}, fmt.Errorf("covert: background rate %.2f too high to calibrate — probe may not be alone", bg)
	}

	out := base
	n := float64(out.Rounds)
	// Background votes ~ Binomial(n, bg); true co-location votes ≈ n.
	// Threshold: background mean plus half the gap, at least 3σ above the
	// background mean.
	mean := n * bg
	sigma := math.Sqrt(n * bg * (1 - bg))
	threshold := mean + (n-mean)/2
	if min := mean + 3*sigma + 1; threshold < min {
		threshold = min
	}
	if threshold > n {
		threshold = n
	}
	out.VoteThreshold = int(math.Ceil(threshold))
	if out.VoteThreshold < 1 {
		out.VoteThreshold = 1
	}
	if err := out.Validate(); err != nil {
		return Config{}, err
	}
	return out, nil
}
