package faas

import (
	"math"
	"time"

	"eaao/internal/cpu"
	"eaao/internal/randx"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
	"eaao/internal/tsc"
)

// HostID identifies a physical host within one data center. Host identities
// are simulator-internal ground truth: attack code never sees them and must
// infer co-residency through fingerprints and covert channels.
type HostID int

// Host is one physical machine in a data center.
//
// Hosts are materialized lazily: construction fills only the identity fields
// placement ranking reads (id, desirability, group), and the heavy state —
// CPU model, TSC counter, noise character, per-host RNG streams, the
// instance map — is drawn on first contact (an instance attaching, or a
// HostEnv accessor). Because every heavy field comes from the host's own
// derived stream ("host", i), the moment of materialization cannot change
// what the host becomes, so a fleet where only 5% of hosts ever serve an
// instance pays 5% of the construction cost with identical outcomes.
type Host struct {
	id HostID
	dc *DataCenter
	// ready flags that the heavy state below has been drawn (materialize).
	ready   bool
	model   cpu.Model
	counter tsc.Counter
	noise   tsc.NoiseProfile
	// refinedHz is the host kernel's boot-time TSC frequency refinement,
	// rounded to 1 kHz (what KVM exports to Gen 2 guests).
	refinedHz float64
	// desirability in [0,1): scheduler-facing score rank; lower-indexed
	// (more desirable) hosts are preferred by both base-pool assignment and
	// helper expansion, which is what correlates attacker and victim
	// footprints.
	desirability float64
	// group is the placement group for base-host assignment.
	group int
	// noiseRNG drives guest measurement noise and covert-channel background
	// activity on this host.
	noiseRNG *randx.Source

	// instances currently resident (active or idle, not terminated), in
	// arrival order with swap-removal (Instance.hostSlot tracks the index).
	// A slice instead of a set: every consumer either counts or filters the
	// whole collection — none depends on order — and attach/detach on the
	// instance-creation hot path stay allocation-free.
	instances []*Instance

	// mark is an epoch tag (Platform.nextMark) letting hot paths answer
	// "have I touched this host during the current operation?" without a
	// per-call map allocation. A mark value is meaningful only inside the
	// single operation that minted it.
	mark uint64
	// roundCount and roundOut are contention scratch, valid only while mark
	// holds the current contention call's epoch: the number of live
	// participants resident here, and the host's resolved result (-1 = not
	// yet drawn) — the units one round observes (ContentionRoundOnInto) or a
	// whole test's count of rounds observing at least m (ContentionVotesInto).
	// int32 packs roundOut beside misfireBias, holding Host at 256 bytes.
	roundCount int
	roundOut   int32

	// Covert-channel misfire state (fault plane), per resource family:
	// misfireBias is the bias of the current misfire window (+1 phantom
	// contention, -1 dead reads, 0 healthy) and misfireCheckAt is the instant
	// the window expires and a new episode may be drawn. Entries stay zero
	// while the matching channel's fault rates are zero — no draws, no
	// behavior change.
	misfireBias    [NumResources]int8
	misfireCheckAt [NumResources]simtime.Time
}

// initHostShell fills host i's identity fields — everything placement ranking
// and base-pool assignment read. Shells draw no randomness; heavy state waits
// for materialize.
func initHostShell(h *Host, dc *DataCenter, i int) {
	h.id = HostID(i)
	h.dc = dc
	h.desirability = float64(i%dc.profile.NumHosts) / float64(dc.profile.NumHosts)
	h.group = i % dc.profile.PlacementGroups
}

// materialize draws the host's heavy state from its own deterministic
// sub-stream ("host", i): CPU model, boot-anchored TSC, noise character, the
// kernel's frequency refinement, the per-host noise RNG, and the resident-
// instance map. The draw order inside the stream is frozen (it predates lazy
// materialization), and the stream is independent of every other host's, so
// materializing hosts in any order — or never — yields identical worlds.
func (h *Host) materialize() {
	if h.ready {
		return
	}
	h.ready = true
	dc := h.dc
	dc.liveHosts++
	i := int(h.id)
	// The indexed stream is drained within this call (noiseRNG below is its
	// own derived heap Source); reseeding the region scratch in place avoids
	// one 5 KiB state allocation per materialized host.
	rng := dc.rng.DeriveIndexedInto(&dc.matScratch, "host", i)
	h.model = cpu.Catalog[rng.WeightedIndex(cpu.DefaultFleetWeights)]
	h.counter = tsc.NewCounter(rng, dc.bootTimes[i], h.model.ReportedTSCHz())

	h.noise = tsc.DefaultNoise()
	if rng.Bool(dc.profile.ProblematicHostFrac) {
		h.noise = tsc.ProblematicNoise(rng.Derive("problematic"))
	}

	// Linux refines the TSC frequency once at boot to 1 kHz precision; the
	// refinement lands within a few hundred Hz of the true rate.
	refineErr := rng.Normal(0, 150)
	h.refinedHz = math.Round((float64(h.counter.ActualHz)+refineErr)/1000) * 1000

	h.noiseRNG = rng.Derive("noise")
}

// sampleBootTimes draws boot instants for n hosts: a mix of independent
// reboots spread over the past MaxBootAge and clustered maintenance batches
// in which many hosts reboot within the same hour. All boots are strictly in
// the virtual past.
func sampleBootTimes(rng *randx.Source, p RegionProfile, start simtime.Time) []simtime.Time {
	n := p.NumHosts
	out := make([]simtime.Time, n)
	age := float64(p.MaxBootAge)

	// A handful of maintenance windows, uniformly over the age span.
	nBatches := n/40 + 1
	batches := make([]float64, nBatches)
	for i := range batches {
		batches[i] = rng.Range(0.02, 1) * age
	}

	for i := 0; i < n; i++ {
		var back float64 // how long ago the host booted, in ns
		if rng.Bool(p.MaintenanceBatchFrac) {
			// Rolling maintenance reboots a batch within a few minutes of
			// each other — the near-identical boot times that cause false
			// positives at coarse rounding precisions (Fig. 4, right end).
			b := batches[rng.Intn(nBatches)]
			back = b + rng.Normal(0, float64(8*time.Minute))
			if back < float64(time.Hour) {
				back = float64(time.Hour) + rng.Range(0, float64(time.Hour))
			}
		} else {
			back = rng.Range(float64(time.Hour), age)
		}
		out[i] = start.Add(-time.Duration(back))
	}
	return out
}

// ID returns the host's simulator-internal identity (ground truth for
// experiment scoring only).
func (h *Host) ID() HostID { return h.id }

// Model returns the host CPU model. It also satisfies sandbox.HostEnv.
func (h *Host) Model() cpu.Model { h.materialize(); return h.model }

// Counter returns the host TSC (sandbox.HostEnv).
func (h *Host) Counter() tsc.Counter { h.materialize(); return h.counter }

// Noise returns the host's measurement-noise profile (sandbox.HostEnv).
func (h *Host) Noise() tsc.NoiseProfile { h.materialize(); return h.noise }

// RefinedTSCHz returns the kernel-refined TSC frequency (sandbox.HostEnv).
func (h *Host) RefinedTSCHz() float64 { h.materialize(); return h.refinedHz }

// NoiseRNG returns the host's noise stream (sandbox.HostEnv).
func (h *Host) NoiseRNG() *randx.Source { h.materialize(); return h.noiseRNG }

// Mitigations returns the region's TSC defenses (sandbox.HostEnv).
func (h *Host) Mitigations() sandbox.Mitigations { return h.dc.profile.Mitigations }

// Now returns the current virtual time (sandbox.HostEnv).
func (h *Host) Now() simtime.Time { return h.dc.platform.sched.Now() }

// ProbeFault reports whether a fingerprint or contention probe on this host
// fails at this instant (sandbox.HostEnv). It draws from the region's
// dedicated probe-fault stream only while the configured rate is positive,
// so a zero-valued fault plan never perturbs the simulation.
func (h *Host) ProbeFault() bool {
	r := h.dc.faults.ProbeFailureRate
	if r <= 0 || !h.dc.probeFaultRNG.Bool(r) {
		return false
	}
	h.dc.faultCounters.ProbeFaults++
	return true
}

// updateMisfire refreshes the host's misfire state for one covert-channel
// resource family at the start of a contention call: while a window is open
// its bias stands; once it expires, a fresh episode is drawn from the channel
// fault stream. The clock does not move inside a call, so one resolution
// holds for every round the call runs. With both of the channel's rates zero
// this is a no-op (and draws nothing), so untargeted channels are never
// perturbed.
func (h *Host) updateMisfire(res Resource) {
	// Resolve the rates without copying the FaultPlan (ChannelRates takes a
	// value receiver): this runs once per host per contention call.
	f := &h.dc.faults
	r := f.PerChannel[res]
	if r.zero() {
		r.FalsePositiveRate = f.ChannelFalsePositiveRate
		r.FalseNegativeRate = f.ChannelFalseNegativeRate
	}
	if r.FalsePositiveRate <= 0 && r.FalseNegativeRate <= 0 {
		return
	}
	now := h.dc.platform.sched.Now()
	if now.Before(h.misfireCheckAt[res]) {
		return
	}
	h.misfireCheckAt[res] = now.Add(ChannelMisfireWindow)
	h.misfireBias[res] = 0
	if r.FalsePositiveRate > 0 && h.dc.channelFaultRNG.Bool(r.FalsePositiveRate) {
		h.misfireBias[res] = 1
	} else if r.FalseNegativeRate > 0 && h.dc.channelFaultRNG.Bool(r.FalseNegativeRate) {
		h.misfireBias[res] = -1
	}
	if h.misfireBias[res] != 0 {
		h.dc.faultCounters.ChannelMisfires++
	}
}

// BootTime returns the host's true boot instant (ground truth). Boot times
// are sampled eagerly for the whole fleet (they come from one shared stream),
// so reading one does not materialize the host.
func (h *Host) BootTime() simtime.Time { return h.dc.bootTimes[h.id] }

// ResidentCount returns how many non-terminated instances live on the host.
func (h *Host) ResidentCount() int { return len(h.instances) }

// servingResidents counts residents that are actively serving request demand:
// connected instances of an autoscaled service with demand > 0 (background
// tenants). Footprint instances pinned through Launch never set demand, so
// the count is zero on every host of a world without demand-driven
// neighbors. Called at most once per host per contention call (the cached
// roundOut result), so the linear scan stays off the hot path.
func (h *Host) servingResidents() int {
	n := 0
	for _, inst := range h.instances {
		if inst.state == StateActive && inst.service.demand > 0 {
			n++
		}
	}
	return n
}

// residentOf counts non-terminated instances of one service on the host.
func (h *Host) residentOf(svc *Service) int {
	n := 0
	for _, inst := range h.instances {
		if inst.service == svc {
			n++
		}
	}
	return n
}

// attach registers an instance on the host, materializing it on first use.
func (h *Host) attach(inst *Instance) {
	h.materialize()
	inst.hostSlot = len(h.instances)
	h.instances = append(h.instances, inst)
}

// detach removes an instance from the host: swap the last resident into its
// slot. No consumer of h.instances is order-sensitive.
func (h *Host) detach(inst *Instance) {
	n := len(h.instances) - 1
	if inst.hostSlot > n || h.instances[inst.hostSlot] != inst {
		return
	}
	last := h.instances[n]
	h.instances[inst.hostSlot] = last
	last.hostSlot = inst.hostSlot
	h.instances[n] = nil
	h.instances = h.instances[:n]
}

// hostBitset is a HostID-indexed bit vector. Per-service host tracking
// (image locality) holds one of these per service; at fleet scale the
// byte-per-host representation it replaces was a measurable share of world
// construction, both bytes and zeroing time.
type hostBitset []uint64

func newHostBitset(n int) hostBitset { return make(hostBitset, (n+63)/64) }

func (b hostBitset) get(id HostID) bool { return b[uint(id)>>6]&(1<<(uint(id)&63)) != 0 }

func (b hostBitset) set(id HostID) { b[uint(id)>>6] |= 1 << (uint(id) & 63) }
