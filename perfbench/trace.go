package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"eaao/internal/core/covert"
	"eaao/internal/faas"
)

// tracer records spans at the layer boundaries the benchmark calls through.
// A nil *tracer is the untraced run: every method is a no-op, so the
// untraced path differs from the traced one only by nil checks.
type tracer struct {
	epoch time.Time
	trial int // id shared by the spans of one trial
	spans []span
	open  []int // indices of the spans still open, innermost last

	// CTests come at up to ~10⁶/s, so they are aggregated at the boundary
	// instead of stored: a count, busy time and a latency histogram.
	ctest ctestAgg
	// advanceEvents counts the kernel events run inside Advance spans.
	advanceEvents uint64
}

type span struct {
	name   string
	trial  int
	parent int // index into spans, -1 for a root
	start  time.Duration
	end    time.Duration
	// ctest is the busy time of the CTests run while this span was the
	// innermost open one; self time subtracts it like a child span.
	ctest time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, trial: t.trial, parent: parent, start: time.Since(t.epoch)})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// setTrial gives the spans that follow the id of their trial.
func (t *tracer) setTrial(id int) {
	if t != nil {
		t.trial = id
	}
}

// ctestAgg aggregates CTest calls seen at the covert.Runner boundary.
type ctestAgg struct {
	calls        int
	pairCalls    int // PairTest calls (the pairwise fallback's unit)
	participants int
	busy         time.Duration
	// underVerify counts calls made while a Campaign.Verify span was the
	// innermost open span — the nesting the trace must show.
	underVerify int
	hist        histogram
}

func (t *tracer) observeCTest(d time.Duration, n int, pair bool) {
	a := &t.ctest
	a.calls++
	a.participants += n
	a.busy += d
	if pair {
		a.pairCalls++
	}
	if k := len(t.open); k > 0 {
		sp := &t.spans[t.open[k-1]]
		sp.ctest += d
		if sp.name == spanVerify {
			a.underVerify++
		}
	}
	a.hist.add(d)
}

// histogram is a log-bucketed latency histogram: 16 buckets per power of
// two above 1 ns, so a quantile is exact to within ~4.4%.
type histogram struct {
	counts []int
	n      int
}

const histSub = 16

func (h *histogram) add(d time.Duration) {
	ns := float64(d)
	if ns < 1 {
		ns = 1
	}
	b := int(math.Log2(ns) * histSub)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]int, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile in microseconds (the bucket's midpoint).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Exp2((float64(b)+0.5)/histSub) / 1e3
		}
	}
	return 0
}

// Span names: one per layer boundary the benchmark calls through.
const (
	spanBuild    = "NewPlatform"
	spanLaunch   = "Campaign.Launch"
	spanVerify   = "Campaign.Verify"
	spanSvc      = "Service.Launch"
	spanDemand   = "Service.SetDemand"
	spanAdvance  = "Scheduler.Advance"
	spanSnapshot = "Platform.Snapshot"
	spanRestore  = "Snapshot.Restore"
)

// spanStat sums the spans of one name.
type spanStat struct {
	calls int
	total time.Duration
	self  time.Duration // total minus child spans and CTests run directly inside
}

// foldSpans sums the stored spans by key, and returns the keys in the
// order their first span opened. A span's self time is its duration minus
// its child spans and the CTests run directly inside it.
func foldSpans[K comparable](t *tracer, key func(span) K) (map[K]spanStat, []K) {
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		self[i] += sp.end - sp.start - sp.ctest
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	folded := make(map[K]spanStat)
	var order []K
	for i, sp := range t.spans {
		k := key(sp)
		st, seen := folded[k]
		if !seen {
			order = append(order, k)
		}
		st.calls++
		st.total += sp.end - sp.start
		st.self += self[i]
		folded[k] = st
	}
	return folded, order
}

// summary folds the stored spans by name.
func (t *tracer) summary() map[string]spanStat {
	byName, _ := foldSpans(t, func(sp span) string { return sp.name })
	return byName
}

// writeSpans prints the stored spans folded by trial and name.
func (t *tracer) writeSpans(w io.Writer) {
	type key struct {
		trial int
		name  string
	}
	folded, order := foldSpans(t, func(sp span) key { return key{sp.trial, sp.name} })
	for _, k := range order {
		st := folded[k]
		fmt.Fprintf(w, "span trial %d %-18s calls %6d  total %9.4fs  self %9.4fs\n",
			k.trial, k.name, st.calls, st.total.Seconds(), st.self.Seconds())
	}
}

// timedRunner wraps a campaign's covert.Runner and times every CTest at the
// boundary. It adds no platform interaction: each call is forwarded once,
// unchanged, so the wrapped campaign's outcome is the unwrapped one's.
type timedRunner struct {
	covert.Runner
	t *tracer
}

func (r timedRunner) CTest(instances []*faas.Instance, m int) ([]bool, error) {
	start := time.Now()
	out, err := r.Runner.CTest(instances, m)
	r.t.observeCTest(time.Since(start), len(instances), false)
	return out, err
}

func (r timedRunner) PairTest(a, b *faas.Instance) (bool, error) {
	start := time.Now()
	out, err := r.Runner.PairTest(a, b)
	r.t.observeCTest(time.Since(start), 2, true)
	return out, err
}
