package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"mucongest/internal/bench"
	"mucongest/internal/topo"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 10},
		// Overlapping children cover [1,5) once; the third child's part
		// past its parent's end does not count against the parent.
		{ID: 1, Parent: 0, Name: "sim.run", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "sim.run", Start: 2, End: 5},
		{ID: 3, Parent: 0, Name: "operation", Start: 8, End: 12},
		{ID: 4, Parent: 3, Name: "sim.new", Start: 9, End: 9.5},
		{ID: 5, Parent: -1, Name: "workload", Start: 20, End: 21},
	}
	got := selfTimes(spans)
	want := map[string]float64{
		"cell":      10 - 4 - 2,
		"sim.run":   2 + 3,
		"operation": 4 - 0.5,
		"sim.new":   0.5,
		"workload":  1,
	}
	for name, w := range want {
		if !near(got[name], w) {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want exactly %v", got, want)
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		kids []span
		want float64
	}{
		{nil, 0},
		{[]span{{Start: 2, End: 4}, {Start: 3, End: 6}, {Start: 1, End: 2}}, 5},
		{[]span{{Start: -5, End: 0.5}, {Start: 9, End: 30}}, 1.5},
		{[]span{{Start: 2, End: 8}, {Start: 3, End: 4}}, 6},
	} {
		if got := covered(0, 10, c.kids); !near(got, c.want) {
			t.Errorf("covered(%v) = %v, want %v", c.kids, got, c.want)
		}
	}
}

func findSpec(t *testing.T, id string) bench.Spec {
	t.Helper()
	for _, sp := range bench.Specs() {
		if sp.ID == id {
			return sp
		}
	}
	t.Fatalf("no cell %q in bench.Specs", id)
	return bench.Spec{}
}

// smallCliqueRecords runs a clique cell on a small graph so its records
// replay quickly.
func smallCliqueRecords(t *testing.T, id, spec string) []bench.Record {
	t.Helper()
	specs := bench.OverrideTopo([]bench.Spec{findSpec(t, id)}, topo.MustParse(spec))
	recs := bench.RunSerial(specs, 3)[0].Records
	if len(recs) == 0 {
		t.Fatalf("%s on %s produced no records", id, spec)
	}
	return recs
}

func TestReplayRepeatsRecords(t *testing.T) {
	for _, c := range []struct{ id, spec string }{
		{"E1/E2-k3", "gnp:n=12,p=0.5"},
		{"E1/E2-k4", "gnp:n=10,p=0.6"},
		{"E3", "gnp:n=16,p=0.5"},
		{"E11/E12", "gnp:n=12,p=0.5"},
	} {
		l := newLayers()
		for _, rec := range smallCliqueRecords(t, c.id, c.spec) {
			if err := replay(rec, cliqueK[c.id], newTracer(), -1, 1, newProbe(), l); err != nil {
				t.Errorf("%s: %v", c.id, err)
			}
		}
		if got := l.metrics(1)["clique.listed_ratio"]; got != 1 {
			t.Errorf("%s: listed ratio %v, want 1", c.id, got)
		}
	}
}

func TestReplayRejectsTamperedRecord(t *testing.T) {
	rec := smallCliqueRecords(t, "E1/E2-k3", "gnp:n=12,p=0.5")[0]
	for name, tamper := range map[string]func(*bench.Record){
		"rounds":    func(r *bench.Record) { r.Rounds++ },
		"messages":  func(r *bench.Record) { r.Messages++ },
		"peakWords": func(r *bench.Record) { r.PeakWords-- },
	} {
		bad := rec
		tamper(&bad)
		if err := replay(bad, 3, newTracer(), -1, 1, newProbe(), newLayers()); err == nil {
			t.Errorf("replay accepted a record with tampered %s", name)
		}
	}
}

// gridFailures runs one pass over cells at the default seed against the
// given pinned stats and returns its tally.
func gridFailures(t *testing.T, cells []string, pinned *pinnedDoc) tally {
	t.Helper()
	var specs []bench.Spec
	for _, id := range cells {
		specs = append(specs, findSpec(t, id))
	}
	w := newGridWorkload(specs, pinnedSeed, pinned)
	var tl tally
	if _, err := w.pass(newProbe(), &tl); err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestPinnedStatsHoldAtDefaultSeed(t *testing.T) {
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	tl := gridFailures(t, []string{"E7", "E13"}, pinned)
	if tl.failed != 0 || tl.attempted == 0 {
		t.Fatalf("%d/%d operations failed: %v", tl.failed, tl.attempted, tl.problems)
	}
}

func TestCorruptedPinnedStatFails(t *testing.T) {
	pinned, err := loadPinned()
	if err != nil {
		t.Fatal(err)
	}
	// The last E13 row runs under message loss, so its fault ledger is
	// non-zero.
	key := "E13@1#19"
	if _, ok := pinned.Ops[key]; !ok {
		t.Fatalf("pinned.json has no %s", key)
	}
	for _, corrupt := range []func(*opStats){
		func(s *opStats) { s.Rounds++ },
		func(s *opStats) { s.Messages++ },
		func(s *opStats) { s.PeakWords++ },
		func(s *opStats) { s.OverMuRounds++ },
		func(s *opStats) { s.FaultDrops++ },
	} {
		doc := &pinnedDoc{Seed: pinned.Seed, Ops: map[string]opStats{}}
		for k, st := range pinned.Ops {
			doc.Ops[k] = st
		}
		st := doc.Ops[key]
		corrupt(&st)
		doc.Ops[key] = st
		if tl := gridFailures(t, []string{"E13"}, doc); tl.failed == 0 {
			t.Errorf("a corrupted pinned statistic left failed_ops at 0 (%d attempted)", tl.attempted)
		}
	}
	delete(pinned.Ops, key)
	if tl := gridFailures(t, []string{"E13"}, pinned); tl.failed == 0 {
		t.Error("a record missing from pinned.json left failed_ops at 0")
	}
}

func TestEngineChecks(t *testing.T) {
	w := &engineWorkload{seed: 5, procs: 2, first: map[string]opStats{}}
	clean := engineRun{"cycle", "cycle:n=64", ""}
	out, err := w.run(clean, nil, newProbe(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(clean, out); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	res := *out.res
	res.Messages--
	if err := w.check(clean, engineOut{res: &res, n: out.n, edges: out.edges}); err == nil {
		t.Error("check accepted a clean run with messages ≠ 2m×rounds")
	}

	faulty := engineRun{"cyclef", "cycle:n=64", "loss:p=0.2+crash:p=0.05,restart=2"}
	out, err = w.run(faulty, nil, newProbe(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(faulty, out); err != nil {
		t.Fatalf("faulty run: %v", err)
	}
	res = *out.res
	res.FaultDrops = res.Dropped + 1
	if err := w.check(faulty, engineOut{res: &res}); err == nil {
		t.Error("check accepted FaultDrops > Dropped")
	}
	res = *out.res
	res.Restarts = res.Crashes + 1
	if err := w.check(faulty, engineOut{res: &res}); err == nil {
		t.Error("check accepted Restarts > Crashes")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// lists in step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer())
}

func TestReportListsEveryMetric(t *testing.T) {
	tl := tally{}
	tl.op(nil)
	r := report(perLayer(), map[string]float64{"sim.run_s": 2}, &tl, io.Discard)
	if len(r.Metrics) != len(perLayer()) || r.Metrics["sim.run_s"].Value != 2 || !r.Correct {
		t.Errorf("report = %+v", r)
	}
}

func TestRSSSampler(t *testing.T) {
	s := startRSS()
	buf := make([]byte, 32<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	peak := s.finish()
	if peak < 32 || buf[len(buf)-1] != byte(len(buf)-1) {
		t.Errorf("peak RSS %.1f MB with 32 MB touched", peak)
	}
}
