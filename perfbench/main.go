// Command perfbench is the repository's end-to-end benchmark. It builds one
// workload's world from a seed, repeats the workload for the given number of
// seconds and prints every metric with its name and unit, then one JSON
// result line:
//
//	go run ./perfbench --workload gen2-verify --seed 9 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced repetitions. --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics of the traced ones. Every run checks its own outputs and exits 1
// when a check fails. BENCHMARK.json at the repository root lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "gen2-verify", "workload: gen2-verify, gen1-loaded or fleet-scale")
	seed := fs.Uint64("seed", 9, "world seed")
	seconds := fs.Float64("seconds", 30, "how long to keep repeating the workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced repetitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments %q\n", args)
		return 2
	}
	// The simulator is single-threaded by design; one P keeps the measured
	// process that way, GC included, and leaves the other cores to the host.
	runtime.GOMAXPROCS(1)

	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullSizes())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
		}
		return 1
	}
	return 0
}

// rep is one repetition: setup, then the measured phase.
type rep struct {
	traced                  bool
	setup, wall, cpu        time.Duration
	hostRef                 time.Duration
	allocs, allocBytes, gcs uint64 // Go runtime counters over the measured phase
	out                     outcome
	tr                      *tracer
}

func runRep(w workload, seed uint64, sz sizes, traced bool) (rep, error) {
	r := rep{traced: traced, hostRef: hostRef()}
	e := &env{seed: seed, sz: sz}
	if traced {
		e.tr = newTracer()
	}
	// Collect the previous repetition's world now, so no repetition pays
	// for another's garbage.
	runtime.GC()
	t0 := time.Now()
	measure, err := w.setup(e)
	if err != nil {
		return r, fmt.Errorf("setup: %w", err)
	}
	r.setup = time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t1 := cpuTime(), time.Now()
	err = measure()
	r.wall, r.cpu = time.Since(t1), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	r.allocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcs = uint64(m1.NumGC - m0.NumGC)
	r.out, r.tr = e.out, e.tr
	return r, nil
}

// bench repeats the workload until the time budget is spent (and at least
// twice, so a traced run has an untraced twin), then folds the repetitions
// into metrics and checks them.
func bench(w workload, seed uint64, budget time.Duration, traced bool, sz sizes) (*result, error) {
	start := time.Now()
	var reps []rep
	var longest time.Duration
	for i := 0; ; i++ {
		t := time.Now()
		r, err := runRep(w, seed, sz, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		longest = max(longest, time.Since(t))
		if len(reps) >= 2 && time.Since(start)+longest > budget {
			break
		}
	}
	return fold(w, reps, traced), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	all      map[string]metric // every metric computed, printed as text
	reps     []rep
	problems []string
}

// fold turns the repetitions into the result: medians of the host-side
// times, the simulated outcome (identical in every repetition), and the
// checks on both.
func fold(w workload, reps []rep, traced bool) *result {
	res := &result{all: make(map[string]metric), reps: reps}
	set := func(name string, v float64, unit string) { res.all[name] = metric{v, unit} }
	var plain, withTrace []rep
	for _, r := range reps {
		if r.traced {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	med := func(rs []rep, f func(rep) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		return median(vs)
	}

	// End to end, from the untraced repetitions.
	out := reps[0].out
	wall := med(plain, func(r rep) float64 { return r.wall.Seconds() })
	set("wall_s", wall, "s")
	set("cpu_s", med(plain, func(r rep) float64 { return r.cpu.Seconds() }), "s")
	set("setup_s", med(plain, func(r rep) float64 { return r.setup.Seconds() }), "s")
	set("peak_rss_mb", peakRSSMB(), "MB")

	// Simulated outcome and layer counters: exact per seed.
	set("coverage", ratio(out.covered, out.victims), "ratio")
	set("coverage_err", ratio(out.truthCovered-out.covered, out.victims), "ratio")
	set("ctests", float64(out.ctests), "count")
	set("attack_usd", out.usd, "USD")
	set("fail_frac", ratio(out.refused, out.ops), "ratio")
	set("covert.revotes", float64(out.revotes), "count")
	set("coloc.tests_per_host", ratio(out.ctests, out.verifiedHosts), "count")
	set("fingerprint.samples", float64(out.fpSamples), "count")
	set("fingerprint.true_hosts_per_group", ratio(out.trueHosts, out.apparentHosts), "ratio")
	set("attack.waves", float64(out.waves), "count")
	set("attack.launch_retries", float64(out.launchRetries), "count")
	set("attack.apparent_hosts", float64(out.apparentHosts), "count")
	set("faas.launch.calls", float64(out.ops-out.waves-out.launchRetries-out.verifies), "count")
	set("faas.launch.fail", float64(out.refused-out.launchRetries), "count")
	set("faas.traffic.redraws", float64(out.redraws), "count")
	set("faas.traffic.shed", float64(out.shed), "count")
	set("faas.hosts_materialized", float64(out.hostsMaterialized), "count")
	set("faas.peak_live", float64(out.peakLive), "count")
	set("simtime.events", float64(out.events), "count")
	set("go.alloc_mb", med(plain, func(r rep) float64 { return float64(r.allocBytes) / (1 << 20) }), "MB")
	set("go.allocs", med(plain, func(r rep) float64 { return float64(r.allocs) }), "count")
	set("go.gc_cycles", med(plain, func(r rep) float64 { return float64(r.gcs) }), "count")
	set("bench.host_ref_s", med(reps, func(r rep) float64 { return r.hostRef.Seconds() }), "s")

	if traced {
		tracedWall := med(withTrace, func(r rep) float64 { return r.wall.Seconds() })
		set("bench.trace_overhead", tracedWall/wall-1, "ratio")
		per := make([][]sample, len(withTrace))
		for i, r := range withTrace {
			per[i] = traceMetrics(r.tr)
		}
		for j, sm := range per[0] {
			vs := make([]float64, len(per))
			for i := range per {
				vs[i] = per[i][j].v
			}
			set(sm.name, median(vs), sm.unit)
		}
	}

	res.Metrics = make(map[string]metric)
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, n := range names {
		res.Metrics[n] = res.all[n]
	}
	for _, r := range reps {
		res.Attempted += r.out.ops
	}
	res.problems = check(w, reps, res.all)
	res.Correct = len(res.problems) == 0
	return res
}

type sample struct {
	name string
	v    float64
	unit string
}

// traceMetrics reads the per-layer host times and call counts of one traced
// repetition, always in the same order.
func traceMetrics(t *tracer) []sample {
	s, c := t.summary(), t.ctest
	nsPerEvent := 0.0
	if t.advanceEvents > 0 {
		nsPerEvent = float64(s[spanAdvance].total) / float64(t.advanceEvents)
	}
	return []sample{
		{"covert.ctest.calls", float64(c.calls), "count"},
		{"covert.ctest_s", c.busy.Seconds(), "s"},
		{"covert.ctest_us.p50", c.hist.quantile(0.50), "us"},
		{"covert.ctest_us.p99", c.hist.quantile(0.99), "us"},
		{"covert.ctest.pair_frac", ratio(c.pairCalls, c.calls), "ratio"},
		{"covert.ctest.mean_n", ratio(c.participants, c.calls), "count"},
		{"coloc.self_s", s[spanVerify].self.Seconds(), "s"},
		{"attack.launch_s", s[spanLaunch].total.Seconds(), "s"},
		{"attack.verify_s", s[spanVerify].total.Seconds(), "s"},
		{"faas.build_s", s[spanBuild].total.Seconds(), "s"},
		{"faas.launch_s", (s[spanSvc].total + s[spanDemand].total).Seconds(), "s"},
		{"faas.advance.calls", float64(s[spanAdvance].calls), "count"},
		{"faas.advance_s", s[spanAdvance].total.Seconds(), "s"},
		{"faas.snapshot_s", s[spanSnapshot].total.Seconds(), "s"},
		{"faas.restore.calls", float64(s[spanRestore].calls), "count"},
		{"faas.restore_s", s[spanRestore].total.Seconds(), "s"},
		{"simtime.ns_per_event", nsPerEvent, "ns"},
	}
}

// endToEnd and perLayer are the metric sets --trace 0 and --trace 1 report;
// BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
	perLayer = []string{
		"coverage", "coverage_err", "ctests", "attack_usd", "fail_frac",
		"covert.ctest.calls", "covert.ctest_s", "covert.ctest_us.p50", "covert.ctest_us.p99",
		"covert.ctest.pair_frac", "covert.ctest.mean_n", "covert.revotes",
		"coloc.self_s", "coloc.tests_per_host",
		"fingerprint.samples", "fingerprint.true_hosts_per_group",
		"attack.launch_s", "attack.verify_s", "attack.waves", "attack.launch_retries", "attack.apparent_hosts",
		"faas.build_s", "faas.launch.calls", "faas.launch.fail", "faas.launch_s",
		"faas.advance.calls", "faas.advance_s", "faas.snapshot_s", "faas.restore.calls", "faas.restore_s",
		"faas.traffic.redraws", "faas.traffic.shed", "faas.hosts_materialized", "faas.peak_live",
		"simtime.events", "simtime.ns_per_event",
		"go.alloc_mb", "go.allocs", "go.gc_cycles",
		"bench.host_ref_s", "bench.trace_overhead",
	}
)

// check returns every way the run's outputs are wrong.
func check(w workload, reps []rep, m map[string]metric) []string {
	var problems []string
	for i, r := range reps[1:] {
		if r.out != reps[0].out {
			kind := "two untraced repetitions"
			if r.traced != reps[0].traced {
				kind = "the traced and untraced runs"
			}
			problems = append(problems, fmt.Sprintf("%s of one seed disagree: %+v vs %+v (repetition %d)", kind, reps[0].out, r.out, i+1))
		}
	}
	for _, n := range []string{"coverage", "fail_frac", "covert.ctest.pair_frac"} {
		if v, ok := m[n]; ok && (v.Value < 0 || v.Value > 1) {
			problems = append(problems, fmt.Sprintf("%s = %v is outside [0, 1]", n, v.Value))
		}
	}
	if truth := ratio(reps[0].out.truthCovered, reps[0].out.victims); truth < 0 || truth > 1 {
		problems = append(problems, fmt.Sprintf("ground-truth coverage %v is outside [0, 1]", truth))
	}
	if w.attack && reps[0].out.covered == 0 {
		problems = append(problems, fmt.Sprintf("attack verified none of %d victims", reps[0].out.victims))
	}
	return problems
}

// print writes the repetitions, the last traced one's spans and every metric
// as text lines, then the JSON result as the last line.
func (res *result) print(out io.Writer) {
	var last *tracer // the last traced repetition's spans are printed
	for i, r := range res.reps {
		fmt.Fprintf(out, "rep %2d traced=%-5v setup %.4fs  wall %.4fs  cpu %.4fs  host_ref %.4fs\n",
			i, r.traced, r.setup.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.hostRef.Seconds())
		if r.tr != nil {
			last = r.tr
		}
	}
	if last != nil {
		last.writeSpans(out)
	}
	names := make([]string, 0, len(res.all))
	for n := range res.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %16.6g %s\n", n, res.all[n].Value, res.all[n].Unit)
	}
	line, _ := json.Marshal(res) // only floats, strings and bools: cannot fail
	fmt.Fprintf(out, "%s\n", line)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB). A
// repetition's own peak depends on where GC cycles fall and swings by half
// between repetitions of one seed; the maximum over the run is steadier.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostRef times a fixed pure-Go loop, so a reader can tell a slower machine
// from slower code: it moves with the first, never with the second.
func hostRef() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return time.Since(start)
}

var refSink uint64
