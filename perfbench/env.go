package main

import (
	"time"

	"eaao/internal/core/attack"
	"eaao/internal/faas"
	"eaao/internal/sandbox"
	"eaao/internal/simtime"
)

// env drives the layers for one repetition of a workload. Every call into a
// layer goes through an env method, which opens a span when the run is
// traced (tr != nil) and only forwards the call otherwise.
type env struct {
	seed uint64 // the world seed; workloads draw no other randomness
	sz   sizes
	tr   *tracer
	out  outcome
}

// outcome is everything a repetition simulated. It is exact per seed, so
// every repetition of a run, traced or not, must produce the same value.
type outcome struct {
	ops, refused int // launch waves incl. retries, victim launches, SetDemand calls, verification passes
	verifies     int

	victims, covered, truthCovered int
	ctests, revotes                int
	usd                            float64
	verifiedHosts                  int

	waves, launchRetries, apparentHosts, fpSamples, trueHosts int

	events            uint64
	hostsMaterialized int
	peakLive          int
	redraws, shed     int
}

func (e *env) build(prof faas.RegionProfile) (*faas.Platform, error) {
	defer e.tr.end(e.tr.begin(spanBuild))
	return faas.NewPlatform(e.seed, prof)
}

// campaign runs an optimized campaign's launch + fingerprint stages. In a
// traced run the campaign's covert runner is wrapped to time every CTest.
func (e *env) campaign(acct *faas.Account, cfg attack.Config, gen sandbox.Gen) (*attack.Campaign, error) {
	camp, err := attack.NewCampaign(acct, cfg, gen, attack.OptimizedStrategy{})
	if err != nil {
		return nil, err
	}
	if e.tr != nil {
		camp.SetTester(timedRunner{camp.Tester(), e.tr})
	}
	sp := e.tr.begin(spanLaunch)
	_, err = camp.Launch()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	st := camp.Stats()
	e.out.ops += st.Waves + st.LaunchRetries
	e.out.refused += st.LaunchRetries
	return camp, nil
}

// verify runs one verification pass and scores it against ground truth:
// a victim is truly covered when its host holds any live attacker instance.
// Instance.HostID is read here for scoring only; the attack never sees it.
func (e *env) verify(camp *attack.Campaign, victims []*faas.Instance) error {
	sp := e.tr.begin(spanVerify)
	cov, _, err := camp.Verify(victims)
	e.tr.end(sp)
	e.out.ops++
	e.out.verifies++
	if err != nil {
		return err
	}
	attackerHosts := make(map[faas.HostID]bool)
	for _, inst := range camp.Result().Live {
		if h, ok := inst.HostID(); ok {
			attackerHosts[h] = true
		}
	}
	for _, v := range victims {
		if h, ok := v.HostID(); ok && attackerHosts[h] {
			e.out.truthCovered++
		}
	}
	e.out.victims += cov.VictimTotal
	e.out.covered += cov.VictimCovered
	e.out.verifiedHosts += cov.AttackerHosts
	return nil
}

// scoreCampaign folds a finished campaign's ledger into the outcome.
func (e *env) scoreCampaign(camp *attack.Campaign) {
	st := camp.Stats()
	e.out.ctests += st.CTests
	e.out.revotes += st.ReVotes
	e.out.usd += st.USD
	e.out.waves += st.Waves
	e.out.launchRetries += st.LaunchRetries
	e.out.apparentHosts += st.ApparentHosts
	e.out.fpSamples += st.FingerprintSamples
	hosts := make(map[faas.HostID]bool)
	for _, inst := range camp.Result().Live {
		if h, ok := inst.HostID(); ok {
			hosts[h] = true
		}
	}
	e.out.trueHosts += len(hosts)
}

// worldMark holds a region's cumulative counters at the start of a
// measured phase.
type worldMark struct {
	events  uint64
	traffic faas.TrafficStats
}

func markWorld(dc *faas.DataCenter) worldMark {
	return worldMark{dc.Scheduler().Executed(), dc.TrafficStats()}
}

// scoreWorld folds what a region's kernel and traffic engine did since m
// into the outcome.
func (e *env) scoreWorld(dc *faas.DataCenter, m worldMark) {
	ts := dc.TrafficStats()
	e.out.events += dc.Scheduler().Executed() - m.events
	e.out.redraws += ts.DemandRedraws - m.traffic.DemandRedraws
	e.out.shed += ts.CongestionRejects - m.traffic.CongestionRejects
	e.out.hostsMaterialized += dc.MaterializedHosts()
	e.observeLive(dc)
}

func (e *env) observeLive(dc *faas.DataCenter) {
	if n := dc.LiveInstances(); n > e.out.peakLive {
		e.out.peakLive = n
	}
}

// launch launches n instances, re-issuing the launch while the platform
// sheds it.
func (e *env) launch(svc *faas.Service, n int) ([]*faas.Instance, error) {
	var insts []*faas.Instance
	err := e.retry(svc.Account().DataCenter().Scheduler(), func() error {
		defer e.tr.end(e.tr.begin(spanSvc))
		var err error
		insts, err = svc.Launch(n)
		return err
	})
	return insts, err
}

func (e *env) setDemand(svc *faas.Service, n int) error {
	return e.retry(svc.Account().DataCenter().Scheduler(), func() error {
		defer e.tr.end(e.tr.begin(spanDemand))
		return svc.SetDemand(n)
	})
}

func (e *env) advance(sched *simtime.Scheduler, d time.Duration) {
	if e.tr == nil {
		sched.Advance(d)
		return
	}
	sp, ev0 := e.tr.begin(spanAdvance), sched.Executed()
	sched.Advance(d)
	e.tr.end(sp)
	e.tr.advanceEvents += sched.Executed() - ev0
}

func (e *env) snapshot(pl *faas.Platform) (*faas.Snapshot, error) {
	defer e.tr.end(e.tr.begin(spanSnapshot))
	return pl.Snapshot()
}

func (e *env) restore(s *faas.Snapshot) (*faas.Platform, error) {
	defer e.tr.end(e.tr.begin(spanRestore))
	return s.Restore()
}
