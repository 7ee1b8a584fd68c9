package main

import (
	"strings"

	"mucongest/internal/bench"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def names a metric and its unit.
type def struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of muexp
// sees. Each is the median over the run's passes, except peak_rss_mb,
// the process peak.
var endToEnd = []def{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"node_rounds_per_s", "1/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// engineSuffixes split the engine-1m layer metrics by run; the plain
// name sums over every operation of the workload.
var engineSuffixes = []string{"", ".powerlaw", ".torus"}

var (
	cellDefs = []def{
		{"bench.cell_s.", "s"},
		{"bench.cell_sched_events.", "count"},
		{"bench.cell_alloc_mb.", "MB"},
	}
	topoDefs = []def{
		{"topo.build_s", "s"},
		{"topo.build_alloc_mb", "MB"},
		{"topo.estimate_mb", "MB"},
	}
	simDefs = []def{
		{"sim.new_s", "s"},
		{"sim.run_s", "s"},
		{"sim.rounds", "count"},
		{"sim.node_rounds", "count"},
		{"sim.messages", "count"},
		{"sim.dropped", "count"},
		{"sim.ns_per_node_round", "ns"},
		{"sim.alloc_mb", "MB"},
		{"sim.gc_cpu_s", "s"},
		{"sim.sched_events", "count"},
		{"sim.sched_wait_s", "s_estimated"},
		{"sim.cpu_util", "share"},
		{"sim.fault_drops", "count"},
		{"sim.crashes", "count"},
		{"sim.restarts", "count"},
	}
	cliqueDefs = []def{
		{"clique.run_s", "s"},
		{"clique.ns_per_node_round", "ns"},
		{"clique.listed_ratio", "ratio"},
	}
	// spanNames are the span kinds of a traced run, reported as self
	// times trace.self_s.<name>.
	spanNames = []string{"workload", "cell", "operation", "topo.build", "clique.reference", "sim.new", "sim.run"}
)

// cellKey is a cell id as it appears in a metric name ("E1/E2-k4" →
// "E1E2-k4").
func cellKey(id string) string { return strings.ReplaceAll(id, "/", "") }

// perLayer lists every per-layer metric of a traced run. A workload
// reports all of them; a layer it does not exercise reads 0.
func perLayer() []def {
	var out []def
	for _, sp := range bench.Specs() {
		for _, d := range cellDefs {
			out = append(out, def{d.name + cellKey(sp.ID), d.unit})
		}
	}
	for _, sfx := range engineSuffixes {
		for _, d := range topoDefs {
			out = append(out, def{d.name + sfx, d.unit})
		}
		for _, d := range simDefs {
			out = append(out, def{d.name + sfx, d.unit})
		}
	}
	out = append(out, cliqueDefs...)
	out = append(out, def{"trace.overhead", "share"}, def{"trace.spans", "count"})
	for _, n := range spanNames {
		out = append(out, def{"trace.self_s." + n, "s"})
	}
	return out
}

// topoAcc sums the topology layer's calls.
type topoAcc struct{ buildS, buildAllocMB, estimateMB float64 }

// simAcc sums the engine layer's calls: sim.New and Run/RunProgram.
type simAcc struct {
	newS, runS, runCPU, allocMB, gcCPU, schedEvents, schedWait float64
	rounds, nodeRounds, messages, dropped                      float64
	faultDrops, crashes, restarts                              float64
}

// layers collects the per-layer figures of one traced run.
type layers struct {
	topo  map[string]*topoAcc // by engine suffix ("" is the total)
	sim   map[string]*simAcc
	cells map[string]delta // by cell id, from the untraced pass

	cliqueRunS, cliqueNodeRounds, listed, reference float64
}

func newLayers() *layers {
	l := &layers{topo: map[string]*topoAcc{}, sim: map[string]*simAcc{}, cells: map[string]delta{}}
	for _, sfx := range engineSuffixes {
		l.topo[sfx], l.sim[sfx] = &topoAcc{}, &simAcc{}
	}
	return l
}

// addTopo accounts one topology build under the total and, for an
// engine run, under its suffix.
func (l *layers) addTopo(sfx string, d delta, est topo.Estimate) {
	for _, k := range keys(sfx) {
		a := l.topo[k]
		a.buildS += d.wall
		a.buildAllocMB += d.allocMB
		a.estimateMB += float64(est.Bytes) / (1 << 20)
	}
}

// addSim accounts one engine construction (dNew) and run (dRun) on n
// nodes with result res.
func (l *layers) addSim(sfx string, dNew, dRun delta, n int, res *sim.Result) {
	for _, k := range keys(sfx) {
		a := l.sim[k]
		a.newS += dNew.wall
		a.runS += dRun.wall
		a.runCPU += dRun.cpu
		a.allocMB += dNew.allocMB + dRun.allocMB
		a.gcCPU += dNew.gcCPU + dRun.gcCPU
		a.schedEvents += dRun.schedEvents
		a.schedWait += dRun.schedWait
		a.rounds += float64(res.Rounds)
		a.nodeRounds += float64(n) * float64(res.Rounds)
		a.messages += float64(res.Messages)
		a.dropped += float64(res.Dropped)
		a.faultDrops += float64(res.FaultDrops)
		a.crashes += float64(res.Crashes)
		a.restarts += float64(res.Restarts)
	}
}

func keys(sfx string) []string {
	if sfx == "" {
		return []string{""}
	}
	return []string{"", sfx}
}

// metrics renders every per-layer metric; procs is GOMAXPROCS.
func (l *layers) metrics(procs int) map[string]float64 {
	v := map[string]float64{}
	for id, d := range l.cells {
		k := cellKey(id)
		v["bench.cell_s."+k] = d.wall
		v["bench.cell_sched_events."+k] = d.schedEvents
		v["bench.cell_alloc_mb."+k] = d.allocMB
	}
	for _, sfx := range engineSuffixes {
		t, s := l.topo[sfx], l.sim[sfx]
		v["topo.build_s"+sfx] = t.buildS
		v["topo.build_alloc_mb"+sfx] = t.buildAllocMB
		v["topo.estimate_mb"+sfx] = t.estimateMB
		v["sim.new_s"+sfx] = s.newS
		v["sim.run_s"+sfx] = s.runS
		v["sim.rounds"+sfx] = s.rounds
		v["sim.node_rounds"+sfx] = s.nodeRounds
		v["sim.messages"+sfx] = s.messages
		v["sim.dropped"+sfx] = s.dropped
		v["sim.ns_per_node_round"+sfx] = ratio(s.runS*1e9, s.nodeRounds)
		v["sim.alloc_mb"+sfx] = s.allocMB
		v["sim.gc_cpu_s"+sfx] = s.gcCPU
		v["sim.sched_events"+sfx] = s.schedEvents
		v["sim.sched_wait_s"+sfx] = s.schedWait
		v["sim.cpu_util"+sfx] = ratio(s.runCPU, s.runS*float64(procs))
		v["sim.fault_drops"+sfx] = s.faultDrops
		v["sim.crashes"+sfx] = s.crashes
		v["sim.restarts"+sfx] = s.restarts
	}
	v["clique.run_s"] = l.cliqueRunS
	v["clique.ns_per_node_round"] = ratio(l.cliqueRunS*1e9, l.cliqueNodeRounds)
	v["clique.listed_ratio"] = ratio(l.listed, l.reference)
	return v
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
