package main

import (
	"fmt"
	"math/rand"
	"time"

	"mucongest/internal/bench"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// engineRun is one `muexp -engine SPEC [-faults PLAN]` invocation: the
// canonical broadcast workload in step mode (bench.BroadcastSteps).
type engineRun struct{ name, topo, faults string }

// engineRuns are the two runs of the engine-1m workload: a clean
// power-law graph in CSR form, then an implicit torus under message
// loss and crash/restart faults.
var engineRuns = []engineRun{
	{"powerlaw", "powerlaw:n=1048576", ""},
	{"torus", "torus:rows=1024,cols=1024", "loss:p=0.01+crash:p=0.001,restart=5"},
}

// engineRounds is muexp's default -enginerounds.
const engineRounds = 4

type engineWorkload struct {
	seed   int64
	procs  int
	pinned map[string]opStats // nil unless the seed is pinnedSeed
	first  map[string]opStats // the first pass's stats, for determinism
}

// engineOut is what one engine run produced.
type engineOut struct {
	res   *sim.Result
	n     int
	edges int64
	setup float64 // seconds from Estimate to a constructed program
}

// run executes r the way muexp -engine does: Estimate, BuildTopology
// from a seed-derived RNG, sim.New with the seed, the fault plan and
// one delivery worker per CPU, then RunProgram. With a tracer each of
// those calls gets a span under parent and its counters go into l.
func (w *engineWorkload) run(r engineRun, tr *tracer, p *probe, parent, op int, l *layers) (out engineOut, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("engine %s: panic: %v", r.name, rec)
		}
	}()
	tp, err := topo.Parse(r.topo)
	if err != nil {
		return out, err
	}
	plan, err := sim.ParseFaults(r.faults)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	var est topo.Estimate
	var g sim.Topology
	dTopo := timed(tr, p, "topo.build", r.topo, parent, op, func() {
		if est, err = tp.Estimate(); err == nil {
			g, err = tp.BuildTopology(rand.New(rand.NewSource(w.seed)))
		}
	})
	if err != nil {
		return out, fmt.Errorf("engine %s: %w", r.name, err)
	}
	var e *sim.Engine
	dNew := timed(tr, p, "sim.new", r.topo, parent, op, func() {
		e = sim.New(g, sim.WithSeed(w.seed), sim.WithFaults(plan), sim.WithSimWorkers(w.procs))
	})
	prog := bench.BroadcastSteps(g.N(), engineRounds)
	out.setup = time.Since(t0).Seconds()
	dRun := timed(tr, p, "sim.run", r.topo, parent, op, func() { out.res, err = e.RunProgram(prog) })
	if err != nil {
		return out, fmt.Errorf("engine %s: %w", r.name, err)
	}
	out.n = g.N()
	if r.faults == "" {
		out.edges = edgeCount(g)
	}
	if l != nil {
		sfx := "." + r.name
		l.addTopo(sfx, dTopo, est)
		l.addSim(sfx, dNew, dRun, out.n, out.res)
	}
	return out, nil
}

// edgeCount is m, half the degree sum.
func edgeCount(g sim.Topology) int64 {
	var sum int64
	dt, hasDeg := g.(sim.DegreeTopology)
	for v := 0; v < g.N(); v++ {
		if hasDeg {
			sum += int64(dt.Degree(v))
		} else {
			sum += int64(len(g.Neighbors(v)))
		}
	}
	return sum / 2
}

// check validates one run's result: a clean broadcast delivers one
// message per edge direction per round; the fault ledger is
// consistent; and the stats repeat the first pass and, at pinnedSeed,
// the pinned ones.
func (w *engineWorkload) check(r engineRun, out engineOut) error {
	res := out.res
	if r.faults == "" && res.Messages != 2*out.edges*int64(res.Rounds) {
		return fmt.Errorf("engine %s: %d messages, want 2m×rounds = 2×%d×%d", r.name, res.Messages, out.edges, res.Rounds)
	}
	if res.FaultDrops > res.Dropped || res.Restarts > res.Crashes {
		return fmt.Errorf("engine %s: fault ledger drops %d of %d dropped, %d restarts of %d crashes",
			r.name, res.FaultDrops, res.Dropped, res.Restarts, res.Crashes)
	}
	return repeats(w.first, w.pinned, "engine/"+r.name, resultStats(res))
}

func (w *engineWorkload) pass(p *probe, t *tally) (passFigures, error) {
	var f passFigures
	start := p.read()
	for _, r := range engineRuns {
		out, err := w.run(r, nil, p, 0, 0, nil)
		f.setup += out.setup
		if err == nil {
			f.nodeRounds += float64(out.n) * float64(out.res.Rounds)
			err = w.check(r, out)
		}
		t.op(err)
	}
	d := since(start, p.read())
	f.wall, f.cpu, f.allocMB = d.wall, d.cpu, d.allocMB
	return f, nil
}

// traced reruns both engine runs, one cell span each.
func (w *engineWorkload) traced(name string, tr *tracer, p *probe, l *layers, t *tally) {
	ws := tr.begin("workload", name, -1, 0)
	for i, r := range engineRuns {
		op := i + 1
		cs := tr.begin("cell", r.name, ws, 0)
		opSpan := tr.begin("operation", r.topo, cs, op)
		out, err := w.run(r, tr, p, opSpan, op, l)
		tr.end(opSpan)
		tr.end(cs)
		if err == nil {
			err = w.check(r, out)
		}
		t.op(err)
	}
	tr.end(ws)
}
