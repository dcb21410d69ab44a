package faas

import (
	"fmt"
	"time"
)

// This file is the platform's channel-model registry: one ChannelModel per
// shared-resource family usable as a covert channel. The registry replaces
// the historical per-Resource switch in the contention-round primitive, and
// is where a channel's physics live — how long a round takes, how much
// bandwidth the resource carries, and how its error rates respond to
// unrelated tenants on the host. The covert package layers CTest
// configurations and pluggable Channel primitives on top.

// NumResources is the number of registered shared-resource families.
// Per-channel state (host misfire windows, FaultPlan.PerChannel) is indexed
// by Resource in fixed-size arrays of this length, so plans and hosts stay
// comparable and snapshot-trivial.
const NumResources = 3

// ChannelModel describes the physics of one covert-channel resource family:
// the per-test virtual cost, the nominal bandwidth, and the background-noise
// character — including how the channel degrades under bystander load.
type ChannelModel struct {
	// Resource is the registry index of the family.
	Resource Resource
	// Name is the family's CLI/ledger name ("rng", "membus", "llc").
	Name string
	// TestTime is the virtual wall-clock one standard 60-round CTest costs
	// on this channel (covert configs use it as TestDuration).
	TestTime time.Duration
	// BitsPerSecond is the channel's nominal covert bandwidth, for the cost
	// comparisons of §4.3 and the related-work channels.
	BitsPerSecond float64
	// BaseNoise is the per-host, per-round probability of background
	// contention from unrelated tenants on a quiet host.
	BaseNoise float64
	// LoadNoise raises the per-round false-positive probability by this much
	// for every bystander instance resident on the host but not
	// participating in the round; LoadNoiseCap bounds the total. Zero means
	// the channel is load-insensitive (the RNG: nobody else touches it).
	LoadNoise    float64
	LoadNoiseCap float64
	// LoadDrop is the per-bystander probability that the whole round reads
	// dead on the host — a false negative, the cache-eviction failure mode
	// of contention channels on a busy LLC; LoadDropCap bounds it.
	LoadDrop    float64
	LoadDropCap float64
	// ServingDrop adds to the round-drop probability for every resident that
	// is actively serving request demand (an autoscaled instance with
	// demand > 0, i.e. a background tenant's workload). A warm sandbox that
	// merely holds a connection occupies cache lines once; one streaming
	// requests re-walks its working set continuously and evicts the probe's
	// lines every round, so serving bystanders degrade the channel far
	// harder than resident-but-idle ones. Zero in every world without
	// demand-driven neighbors, which keeps quiet-world draw outcomes
	// byte-identical. ServingDropCap bounds the serving term on its own;
	// the residency term's LoadDropCap still applies separately.
	ServingDrop    float64
	ServingDropCap float64
}

// channelModels is the registry, indexed by Resource.
//
// The RNG and memory-bus rows reproduce the historical hardcoded behavior
// exactly (0.8% and 18% background, no load sensitivity), so worlds that only
// ever drive those channels draw byte-identically to builds before the
// registry existed. The LLC row models the Zhao & Fletcher channel: an order
// of magnitude more bandwidth than the RNG and 5× shorter tests, but the
// cache is shared with every co-resident workload, so both error rates grow
// with host occupancy.
var channelModels = [NumResources]ChannelModel{
	ResourceRNG: {
		Resource:      ResourceRNG,
		Name:          "rng",
		TestTime:      100 * time.Millisecond,
		BitsPerSecond: 600,
		BaseNoise:     0.008,
	},
	ResourceMemBus: {
		Resource:      ResourceMemBus,
		Name:          "membus",
		TestTime:      3 * time.Second,
		BitsPerSecond: 20,
		BaseNoise:     0.18,
	},
	ResourceLLC: {
		Resource:      ResourceLLC,
		Name:          "llc",
		TestTime:      20 * time.Millisecond,
		BitsPerSecond: 4000,
		BaseNoise:     0.04,
		LoadNoise:     0.03,
		LoadNoiseCap:  0.45,
		LoadDrop:      0.015,
		LoadDropCap:   0.30,
		// Serving bystanders are ~3× the pressure of resident ones: a host
		// mostly full of request-serving tenants pushes the stock 36-of-60
		// verdict underwater, which is the measured degrade-under-load
		// behavior of cache channels on shared hosts.
		ServingDrop:    0.005,
		ServingDropCap: 0.30,
	},
}

// Valid reports whether the resource is a registered family.
func (r Resource) Valid() bool { return r >= 0 && int(r) < NumResources }

// ChannelModelOf returns the registered model of a resource family.
func ChannelModelOf(res Resource) (ChannelModel, error) {
	if !res.Valid() {
		return ChannelModel{}, fmt.Errorf("faas: unknown channel resource %d", int(res))
	}
	return channelModels[res], nil
}

// Channels lists every registered channel model in Resource order.
func Channels() []ChannelModel { return append([]ChannelModel(nil), channelModels[:]...) }

// ChannelByName resolves a channel model from its name.
func ChannelByName(name string) (ChannelModel, error) {
	for _, m := range channelModels {
		if m.Name == name {
			return m, nil
		}
	}
	return ChannelModel{}, fmt.Errorf("faas: unknown channel %q (rng, membus, llc)", name)
}

// roundNoise is the false-positive probability of one contention round on
// host h: base background plus load sensitivity from bystander tenants
// (residents not participating in the round). Pointer receiver: contention
// calls read it once per host, so the model must not be copied.
func (m *ChannelModel) roundNoise(h *Host) float64 {
	p := m.BaseNoise
	if m.LoadNoise > 0 {
		if by := h.ResidentCount() - h.roundCount; by > 0 {
			p += m.LoadNoise * float64(by)
		}
		if m.LoadNoiseCap > 0 && p > m.LoadNoiseCap {
			p = m.LoadNoiseCap
		}
	}
	return p
}

// roundDrop is the probability that this round reads dead on host h (a
// load-induced false negative): a residency term from bystander instances
// plus a steeper term from bystanders actively serving request demand, each
// capped on its own. Zero on load-insensitive channels — callers gate on
// LoadDrop > 0 before drawing, which is what keeps the quiet channels' draw
// sequences frozen; and the serving term is zero wherever no neighbor runs
// demand-driven load, so quiet-world outcomes are frozen too.
func (m *ChannelModel) roundDrop(h *Host) float64 {
	if m.LoadDrop <= 0 {
		return 0
	}
	p := 0.0
	if by := h.ResidentCount() - h.roundCount; by > 0 {
		p = m.LoadDrop * float64(by)
		if m.LoadDropCap > 0 && p > m.LoadDropCap {
			p = m.LoadDropCap
		}
	}
	if m.ServingDrop > 0 {
		if sv := h.servingResidents(); sv > 0 {
			q := m.ServingDrop * float64(sv)
			if m.ServingDropCap > 0 && q > m.ServingDropCap {
				q = m.ServingDropCap
			}
			p += q
		}
	}
	return p
}
