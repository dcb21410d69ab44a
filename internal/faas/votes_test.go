package faas

import (
	"fmt"
	"testing"
	"time"
)

// votesWorld builds a region in a state that exercises every branch of the
// contention physics — an attacker footprint spread over shared hosts plus a
// two-instance service torn down after the snapshot point — and returns its
// snapshot.
func votesWorld(t *testing.T, seed uint64, plan FaultPlan, loaded bool) *Snapshot {
	t.Helper()
	p := testProfile()
	p.Faults = plan
	if loaded {
		p.Traffic = DefaultTrafficModel(60, 0.5)
	}
	pl := MustPlatform(seed, p)
	dc := pl.MustRegion("test-region")
	if loaded {
		// Let background tenants ramp up, so bystanders serve demand.
		pl.Scheduler().Advance(90 * time.Minute)
	}
	if _, err := dc.Account("attacker").DeployService("probe", ServiceConfig{}).Launch(40); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Account("attacker").DeployService("gone", ServiceConfig{}).Launch(2); err != nil {
		t.Fatal(err)
	}
	snap, err := pl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// votesParticipants picks the test's participant lists on a fork: host
// groups of one, two and three live participants interleaved across hosts,
// with a terminated participant mixed in. The picks depend only on the
// fork's (identical) state, so both forks pick the same instances.
func votesParticipants(t *testing.T, p *Platform) [][]*Instance {
	t.Helper()
	dc := p.MustRegion("test-region")
	gone := dc.Account("attacker").DeployService("gone", ServiceConfig{})
	dead := gone.Instances()[0]
	gone.TerminateAll()

	byHost := map[HostID][]*Instance{}
	var order []HostID
	for _, inst := range dc.Account("attacker").DeployService("probe", ServiceConfig{}).Instances() {
		id, _ := inst.HostID()
		if byHost[id] == nil {
			order = append(order, id)
		}
		byHost[id] = append(byHost[id], inst)
	}
	var one, two, three []*Instance
	for _, id := range order {
		insts := byHost[id]
		switch {
		case len(insts) >= 3 && three == nil:
			three = insts[:3]
		case len(insts) >= 2 && two == nil:
			two = insts[:2]
		case one == nil:
			one = insts[:1]
		}
	}
	if one == nil || two == nil || three == nil {
		t.Fatalf("footprint lacks hosts with 1, 2 and 3 residents (%d hosts)", len(order))
	}
	// Participant order interleaves hosts, so misfire resolution (participant
	// order) and per-host draws (host order) are tested apart.
	mixed := []*Instance{three[0], two[0], dead, one[0], three[1], two[1], three[2]}
	return [][]*Instance{
		one,
		two,
		three,
		{dead},
		mixed,
	}
}

// TestContentionVotesMatchesRounds pins the batched primitive's contract:
// ContentionVotesInto over R rounds is byte-identical to counting units >= m
// over R calls of ContentionRoundOnInto, and leaves every random stream
// where the round-by-round calls leave it — the next round after the test
// reads identically on both forks.
func TestContentionVotesMatchesRounds(t *testing.T) {
	const rounds = 60
	misfires := FaultPlan{ChannelFalsePositiveRate: 0.3, ChannelFalseNegativeRate: 0.3}
	cases := []struct {
		name   string
		plan   FaultPlan
		loaded bool
	}{
		{"quiet", FaultPlan{}, false},
		{"misfires", misfires, false},
		{"loaded", FaultPlan{}, true},
		{"loaded-misfires", misfires, true},
	}
	for _, tc := range cases {
		for _, res := range []Resource{ResourceRNG, ResourceMemBus, ResourceLLC} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, res), func(t *testing.T) {
				snap := votesWorld(t, 41, tc.plan, tc.loaded)
				batched, stepped := snap.MustRestore(), snap.MustRestore()
				bParts, sParts := votesParticipants(t, batched), votesParticipants(t, stepped)
				var votes, obs, bNext, sNext []int
				var err error
				dead := 0
				for k := range bParts {
					for _, m := range []int{2, 3} {
						votes, err = ContentionVotesInto(res, bParts[k], m, rounds, votes)
						if err != nil {
							t.Fatal(err)
						}
						want := make([]int, len(sParts[k]))
						for r := 0; r < rounds; r++ {
							if obs, err = ContentionRoundOnInto(res, sParts[k], obs); err != nil {
								t.Fatal(err)
							}
							for i, units := range obs {
								if units >= m {
									want[i]++
								}
								if units == 0 && sParts[k][i].State() != StateTerminated {
									dead++
								}
							}
						}
						if fmt.Sprint(votes) != fmt.Sprint(want) {
							t.Fatalf("set %d m=%d: votes %v, rounds count %v", k, m, votes, want)
						}
						if bNext, err = ContentionRoundOnInto(res, bParts[k], bNext); err != nil {
							t.Fatal(err)
						}
						if sNext, err = ContentionRoundOnInto(res, sParts[k], sNext); err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(bNext) != fmt.Sprint(sNext) {
							t.Fatalf("set %d m=%d: next round %v after votes, %v after rounds", k, m, bNext, sNext)
						}
						// Cross a misfire window so the next test re-draws.
						batched.Scheduler().Advance(ChannelMisfireWindow)
						stepped.Scheduler().Advance(ChannelMisfireWindow)
					}
				}
				bc := batched.MustRegion("test-region").FaultCounters()
				sc := stepped.MustRegion("test-region").FaultCounters()
				if bc != sc {
					t.Fatalf("fault counters %+v after votes, %+v after rounds", bc, sc)
				}
				if tc.plan.ChannelFalsePositiveRate > 0 && bc.ChannelMisfires == 0 {
					t.Error("misfire plan drew no misfire episode")
				}
				if tc.loaded && res == ResourceLLC && dead == 0 {
					t.Error("loaded LLC never dropped a live participant's round")
				}
			})
		}
	}
}

// TestContentionVotesArgs covers the primitive's argument contract.
func TestContentionVotesArgs(t *testing.T) {
	dc := newTestDC(t, 43)
	insts, err := dc.Account("a").DeployService("s", ServiceConfig{}).Launch(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ContentionVotesInto(Resource(9), insts, 2, 60, nil); err == nil {
		t.Error("unknown resource accepted")
	}
	if _, err := ContentionVotesInto(ResourceRNG, insts, 0, 60, nil); err == nil {
		t.Error("m = 0 accepted")
	}
	if _, err := ContentionVotesInto(ResourceRNG, insts, 2, -1, nil); err == nil {
		t.Error("negative rounds accepted")
	}
	if out, err := ContentionVotesInto(ResourceRNG, nil, 2, 60, nil); err != nil || len(out) != 0 {
		t.Errorf("empty participant list: %v, %v", out, err)
	}
}
