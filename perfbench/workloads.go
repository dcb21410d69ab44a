package main

import (
	"errors"
	"fmt"
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// workload is one benchmark input. setup builds the world and returns the
// measured phase; everything setup does counts toward setup_s, everything
// measure does toward wall_s and cpu_s.
type workload struct {
	name   string
	attack bool // verifies victims, so it must cover some
	setup  func(e *env) (measure func() error, err error)
}

// workloads lists the benchmark's inputs; BENCHMARK.json records why each
// was chosen.
func workloads() []workload {
	return []workload{
		{"gen2-verify", true, setupGen2Verify},
		{"gen1-loaded", true, setupGen1Loaded},
		{"fleet-scale", false, setupFleetScale},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes how much work each workload does. full is the benchmark;
// quick runs the same code paths in well under a second for tests.
type sizes struct {
	gen2Regions []faas.RegionProfile
	gen2Camp    attack.Config
	victims     int

	loaded       faas.RegionProfile
	warmup       time.Duration
	loadedCamp   attack.Config
	loadedTrials int

	fleet       faas.RegionProfile
	tenants     int
	phases      []int
	phaseDur    time.Duration
	fleetCycles int
}

// maxRetries bounds the re-issues of a launch the congested platform sheds.
// At the busy tier's shed rates a wave exhausting it is vanishingly rare, so
// no operation of a workload fails for good.
const maxRetries = 12

func fullSizes() sizes {
	loaded := faas.USCentral1Profile()
	// noisesweep's busy tier: one bystander tenant per host at 70% of
	// serving capacity.
	loaded.Traffic = faas.DefaultTrafficModel(loaded.NumHosts, 0.7)
	loadedCamp := attack.DefaultConfig()
	loadedCamp.LaunchRetries = maxRetries
	loadedCamp.RetryBackoff = 15 * time.Second

	// The scale experiment's full-scale region and demand shape.
	fleet := faas.USEast1Profile()
	fleet.Name = "scale-region"
	fleet.NumHosts = 40000
	fleet.PlacementGroups = 40
	fleet.MaxInstancesPerService = 2000
	fleet.Faults.PreemptionRatePerHour = 0.01

	return sizes{
		gen2Regions: faas.DefaultProfiles(),
		gen2Camp:    attack.DefaultConfig(),
		victims:     100,

		loaded:       loaded,
		warmup:       2 * time.Hour,
		loadedCamp:   loadedCamp,
		loadedTrials: 6,

		fleet:       fleet,
		tenants:     128,
		phases:      []int{800, 1100, 300, 700},
		phaseDur:    90 * time.Minute,
		fleetCycles: 3,
	}
}

func quickSizes() sizes {
	s := fullSizes()
	small := func(p faas.RegionProfile) faas.RegionProfile {
		p.NumHosts = 300
		p.PlacementGroups = 3
		p.BasePoolSize = 90
		p.AccountHelperPool = 90
		p.ServiceHelperSize = 70
		p.ServiceHelperFresh = 5
		return p
	}
	s.gen2Regions = []faas.RegionProfile{faas.USWest1Profile()}
	s.gen2Camp.Services, s.gen2Camp.Launches, s.gen2Camp.InstancesPerLaunch = 2, 2, 150
	s.victims = 30

	s.loaded = small(s.loaded)
	// Past the congestion knee, so the quick run sheds launches too.
	s.loaded.Traffic = faas.DefaultTrafficModel(s.loaded.NumHosts, 1.0)
	s.warmup = 30 * time.Minute
	s.loadedCamp.Services, s.loadedCamp.Launches, s.loadedCamp.InstancesPerLaunch = 2, 2, 150

	s.fleet = small(s.fleet)
	s.tenants = 8
	s.phases = []int{60, 90, 20}
	s.phaseDur = 30 * time.Minute
	s.fleetCycles = 1
	return s
}

// setupGen2Verify builds the three default regions and runs the attacker's
// optimized Gen 2 campaign (launch + fingerprint) in each; the measured
// phase launches two 100-instance victim services per region and verifies
// each against the attacker footprint.
func setupGen2Verify(e *env) (func() error, error) {
	type region struct {
		dc   *faas.DataCenter
		camp *attack.Campaign
	}
	var regions []region
	for i, prof := range e.sz.gen2Regions {
		e.tr.setTrial(i + 1)
		pl, err := e.build(prof)
		if err != nil {
			return nil, err
		}
		dc := pl.MustRegion(prof.Name)
		camp, err := e.campaign(dc.Account("account-1"), e.sz.gen2Camp, sandbox.Gen2)
		if err != nil {
			return nil, err
		}
		regions = append(regions, region{dc, camp})
	}
	return func() error {
		for i, r := range regions {
			e.tr.setTrial(i + 1)
			m := markWorld(r.dc)
			for _, acct := range []string{"account-2", "account-3"} {
				svc := r.dc.Account(acct).DeployService("victim",
					faas.ServiceConfig{Size: faas.SizeSmall, Gen: sandbox.Gen2})
				vic, err := e.launch(svc, e.sz.victims)
				if err != nil {
					return err
				}
				if err := e.verify(r.camp, vic); err != nil {
					return err
				}
			}
			e.scoreCampaign(r.camp)
			e.scoreWorld(r.dc, m)
		}
		return nil
	}, nil
}

// setupGen1Loaded builds us-central1 under busy background traffic, warms
// it for two hours and snapshots it. Each measured trial restores the
// snapshot and runs a Gen 1 optimized campaign from its own attacker
// account, then launches and verifies a 100-instance victim service.
func setupGen1Loaded(e *env) (func() error, error) {
	pl, err := e.build(e.sz.loaded)
	if err != nil {
		return nil, err
	}
	e.advance(pl.Scheduler(), e.sz.warmup)
	snap, err := e.snapshot(pl)
	if err != nil {
		return nil, err
	}
	return func() error {
		for k := 0; k < e.sz.loadedTrials; k++ {
			e.tr.setTrial(k + 1)
			fork, err := e.restore(snap)
			if err != nil {
				return err
			}
			dc := fork.MustRegion(e.sz.loaded.Name)
			m := markWorld(dc)
			camp, err := e.campaign(dc.Account(fmt.Sprintf("attacker-%d", k)), e.sz.loadedCamp, sandbox.Gen1)
			if err != nil {
				return err
			}
			svc := dc.Account(fmt.Sprintf("victim-%d", k)).DeployService("victim", faas.ServiceConfig{})
			vic, err := e.launch(svc, e.sz.victims)
			if err != nil {
				return err
			}
			if err := e.verify(camp, vic); err != nil {
				return err
			}
			e.scoreCampaign(camp)
			e.scoreWorld(dc, m)
		}
		return nil
	}, nil
}

// setupFleetScale builds the scale experiment's 40k-host region and deploys
// its tenants; the measured phase steps every tenant through the demand
// phases, fleetCycles times over.
func setupFleetScale(e *env) (func() error, error) {
	pl, err := e.build(e.sz.fleet)
	if err != nil {
		return nil, err
	}
	dc := pl.MustRegion(e.sz.fleet.Name)
	svcs := make([]*faas.Service, e.sz.tenants)
	for i := range svcs {
		// MaxConcurrency 1 makes demand equal the instance target.
		svcs[i] = dc.Account(fmt.Sprintf("tenant-%03d", i)).
			DeployService("app", faas.ServiceConfig{MaxConcurrency: 1})
	}
	return func() error {
		m := markWorld(dc)
		for c := 0; c < e.sz.fleetCycles; c++ {
			for _, demand := range e.sz.phases {
				for _, svc := range svcs {
					if err := e.setDemand(svc, demand); err != nil {
						return err
					}
				}
				e.advance(pl.Scheduler(), e.sz.phaseDur)
				e.observeLive(dc)
			}
		}
		e.scoreWorld(dc, m)
		return nil
	}, nil
}

// retry re-issues op while the platform sheds it, holding 15 s of simulated
// time between attempts. Every attempt is one operation; a shed one is a
// refused operation.
func (e *env) retry(sched *simtime.Scheduler, op func() error) error {
	for attempt := 0; ; attempt++ {
		e.out.ops++
		err := op()
		if err == nil || !errors.Is(err, faas.ErrLaunchFault) || attempt == maxRetries {
			return err
		}
		e.out.refused++
		e.advance(sched, 15*time.Second)
	}
}
