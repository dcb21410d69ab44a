package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"eaao/internal/faas"
	"eaao/internal/sandbox"
)

// TestTimedRunnerChangesNothing runs one quick Gen 2 campaign with and
// without the timing covert.Runner wrapper: the ledger, coverage and CTest
// count must match, and every timed CTest must nest under its Verify span.
func TestTimedRunnerChangesNothing(t *testing.T) {
	run := func(traced bool) (string, outcome, *tracer) {
		e := &env{seed: 42, sz: quickSizes()}
		if traced {
			e.tr = newTracer()
		}
		prof := e.sz.gen2Regions[0]
		pl, err := e.build(prof)
		if err != nil {
			t.Fatal(err)
		}
		dc := pl.MustRegion(prof.Name)
		camp, err := e.campaign(dc.Account("account-1"), e.sz.gen2Camp, sandbox.Gen2)
		if err != nil {
			t.Fatal(err)
		}
		svc := dc.Account("account-2").DeployService("victim", faas.ServiceConfig{Gen: sandbox.Gen2})
		vic, err := e.launch(svc, e.sz.victims)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.verify(camp, vic); err != nil {
			t.Fatal(err)
		}
		e.scoreCampaign(camp)
		return camp.Stats().String(), e.out, e.tr
	}
	plainLedger, plain, _ := run(false)
	tracedLedger, traced, tr := run(true)
	if plainLedger != tracedLedger {
		t.Errorf("ledger changed under the timing wrapper:\n%s\nvs\n%s", plainLedger, tracedLedger)
	}
	if plain != traced {
		t.Errorf("outcome changed under the timing wrapper: %+v vs %+v", plain, traced)
	}
	if plain.ctests == 0 || plain.covered == 0 {
		t.Fatalf("degenerate campaign: %+v", plain)
	}
	if tr.ctest.calls != plain.ctests {
		t.Errorf("wrapper saw %d CTests, ledger charged %d", tr.ctest.calls, plain.ctests)
	}
	if tr.ctest.underVerify != tr.ctest.calls {
		t.Errorf("%d of %d CTests ran outside a %s span", tr.ctest.calls-tr.ctest.underVerify, tr.ctest.calls, spanVerify)
	}
}

// TestWorkloadsQuick runs every workload once untraced and once traced at
// the quick size, through the same fold, checks and output as a real run.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, err := bench(w, 42, 1, true, quickSizes())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.problems)
			}
			if len(res.reps) != 2 || res.reps[0].traced || !res.reps[1].traced {
				t.Fatalf("want one untraced then one traced repetition, got %d", len(res.reps))
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if len(last.Metrics) != len(perLayer) || last.Attempted < 1 {
				t.Errorf("result has %d metrics (want %d), attempted %d", len(last.Metrics), len(perLayer), last.Attempted)
			}
			m := func(name string) float64 {
				v, ok := last.Metrics[name]
				if !ok {
					t.Fatalf("metric %s missing", name)
				}
				return v.Value
			}
			// The layer split each workload exists to show.
			switch w.name {
			case "gen2-verify":
				if m("covert.ctest.calls") == 0 || m("covert.ctest.pair_frac") < 0.5 {
					t.Errorf("gen2-verify: %v CTests, pair_frac %v", m("covert.ctest.calls"), m("covert.ctest.pair_frac"))
				}
			case "gen1-loaded":
				if m("faas.traffic.shed") == 0 || m("fail_frac") == 0 || m("faas.restore.calls") == 0 {
					t.Errorf("gen1-loaded: shed %v, fail_frac %v, restores %v", m("faas.traffic.shed"), m("fail_frac"), m("faas.restore.calls"))
				}
			case "fleet-scale":
				if m("covert.ctest.calls") != 0 || m("ctests") != 0 || m("simtime.events") == 0 {
					t.Errorf("fleet-scale: %v CTests, %v events", m("covert.ctest.calls"), m("simtime.events"))
				}
			}
		})
	}
}

func TestCheckCatchesWrongOutputs(t *testing.T) {
	w, _ := workloadByName("gen2-verify")
	good := outcome{ops: 10, victims: 100, covered: 80, truthCovered: 85, ctests: 1000}
	fold := func(reps ...rep) []string { return fold(w, reps, false).problems }

	if p := fold(rep{out: good}, rep{out: good, traced: true}); len(p) != 0 {
		t.Fatalf("consistent run flagged: %v", p)
	}
	drift := good
	drift.ctests++
	if p := fold(rep{out: good}, rep{out: drift, traced: true}); len(p) != 1 || !strings.Contains(p[0], "traced and untraced") {
		t.Errorf("traced/untraced disagreement not caught: %v", p)
	}
	over := good
	over.covered = 120
	if p := fold(rep{out: over}); len(p) == 0 {
		t.Error("coverage above 1 not caught")
	}
	none := good
	none.covered = 0
	if p := fold(rep{out: none}); len(p) == 0 {
		t.Error("attack covering no victims not caught")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric sets
// in step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	var ws []string
	for _, w := range workloads() {
		ws = append(ws, w.name)
	}
	for _, c := range []struct{ what, json, prog string }{
		{"workloads", names(spec.Workloads), strings.Join(ws, " ")},
		{"end_to_end", names(spec.EndToEnd), strings.Join(endToEnd, " ")},
		{"per_layer", names(spec.PerLayer), strings.Join(perLayer, " ")},
	} {
		if c.json != c.prog {
			t.Errorf("%s: BENCHMARK.json has %q, the program %q", c.what, c.json, c.prog)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and no output", args, code, out.String())
		}
	}
}
