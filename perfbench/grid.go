package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"mucongest/internal/bench"
	"mucongest/internal/clique"
	"mucongest/internal/expander"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// The grid workload runs muexp's default experiment grid (bench.Specs)
// cell by cell through bench.RunSerial. The workload seed reaches the
// program only as the root seed of bench.CellSeed.

// cliqueK names the cells whose operations list k-cliques. The traced
// run replays their records through the clique package's exported
// calls; the others are traced at cell granularity.
var cliqueK = map[string]int{"E1/E2-k3": 3, "E1/E2-k4": 4, "E3": 3, "E11/E12": 3}

// gridSetupReps is how often a pass repeats the grid set-up; the pass
// reports the median, since one set-up takes only milliseconds.
const gridSetupReps = 5

// gridRootSeeds is how many root seeds the grid workload cycles through:
// pass p runs its cells at root seed seed + (p mod gridRootSeeds)<<32,
// so the first pass is exactly `muexp -seed SEED`. A cell's work depends
// strongly on its seed (E3's round count varies fivefold), so a run
// reports the median over passes at distinct seeds rather than one
// seed's figure.
const gridRootSeeds = maxPasses

// cellRun is one cell at one root seed.
type cellRun struct {
	sp   bench.Spec
	root int64
}

// key names the cell run in checks and in pinned.json.
func (c cellRun) key() string { return fmt.Sprintf("%s@%d", c.sp.ID, c.root) }

type gridWorkload struct {
	specs  []bench.Spec
	seed   int64
	passes int
	pinned map[string]opStats // nil unless the seed is pinnedSeed
	first  map[string]opStats // each operation's first stats, for determinism
	last   *gridPass
}

// cellInput is the benchmark's own set-up for one cell run: its input
// graph, rebuilt from the cell seed and topology, and for a clique cell
// the brute-force clique count the checks compare against.
type cellInput struct {
	g    *graph.Graph
	want int
}

// gridPass is what one untraced pass produced, by cell run key.
type gridPass struct {
	runs   []cellRun
	tables map[string]*bench.Table
	cells  map[string]delta
}

func newGridWorkload(specs []bench.Spec, seed int64, pinned *pinnedDoc) *gridWorkload {
	w := &gridWorkload{specs: specs, seed: seed, first: map[string]opStats{}}
	if pinned != nil {
		w.pinned = pinned.Ops
	}
	return w
}

// setup rebuilds the inputs of the cell runs from their seeds.
func setup(runs []cellRun) (map[string]cellInput, error) {
	in := map[string]cellInput{}
	for _, c := range runs {
		tp, err := topo.Parse(c.sp.Topo)
		if err != nil {
			return nil, err
		}
		g, err := tp.Build(rand.New(rand.NewSource(bench.CellSeed(c.root, c.sp.ID))))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
		ci := cellInput{g: g}
		if k, ok := cliqueK[c.sp.ID]; ok {
			ci.want = len(clique.ListAll(g, k))
		}
		in[c.key()] = ci
	}
	return in, nil
}

// pass runs the set-up, then every cell once at the pass's root seed,
// checking each record. The pass's wall time covers the cells only: the
// set-up builds the benchmark's references, which a muexp user never
// computes.
func (w *gridWorkload) pass(p *probe, t *tally) (passFigures, error) {
	var f passFigures
	root := w.seed + int64(w.passes%gridRootSeeds)<<32
	w.passes++
	gp := &gridPass{tables: map[string]*bench.Table{}, cells: map[string]delta{}}
	for _, sp := range w.specs {
		gp.runs = append(gp.runs, cellRun{sp, root})
	}
	var in map[string]cellInput
	setups := make([]float64, gridSetupReps)
	for i := range setups {
		t0 := time.Now()
		var err error
		if in, err = setup(gp.runs); err != nil {
			return f, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	f.setup = median(setups)

	start := p.read()
	for _, c := range gp.runs {
		a := p.read()
		tab, err := runCell(c)
		gp.cells[c.key()] = since(a, p.read())
		if err != nil {
			t.op(err)
			continue
		}
		gp.tables[c.key()] = tab
		f.nodeRounds += w.checkCell(c, in[c.key()], tab, t)
	}
	d := since(start, p.read())
	f.wall, f.cpu, f.allocMB = d.wall, d.cpu, d.allocMB
	w.last = gp
	return f, nil
}

// runCell runs one cell alone; a panicking runner is an error.
func runCell(c cellRun) (t *bench.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", c.key(), r)
		}
	}()
	return bench.RunSerial([]bench.Spec{c.sp}, c.root)[0], nil
}

// checkCell checks every record of one cell run's table against the
// run's inputs and returns its simulated node-rounds.
func (w *gridWorkload) checkCell(c cellRun, in cellInput, tab *bench.Table, t *tally) float64 {
	n := float64(in.g.N())
	var nodeRounds float64
	for i, rec := range tab.Records {
		nodeRounds += n * float64(rec.Rounds)
		st, err := recordStats(tab, i)
		if _, ok := cliqueK[c.sp.ID]; ok && err == nil {
			if err = checkListed(tab, i, in.want); err != nil {
				err = fmt.Errorf("%s: %w", c.key(), err)
			}
		}
		if err == nil {
			err = repeats(w.first, w.pinned, fmt.Sprintf("%s#%d", c.key(), i), st)
		}
		t.op(err)
	}
	if w.pinned != nil {
		if _, more := w.pinned[fmt.Sprintf("%s#%d", c.key(), len(tab.Records))]; more {
			t.op(fmt.Errorf("%s: %d records, pinned.json holds more", c.key(), len(tab.Records)))
		}
	}
	return nodeRounds
}

// traced reruns the workload under tr. Clique cells replay the last
// untraced pass's records one operation at a time; the others run
// whole, traced at cell granularity. Cell-level counters come from the
// untraced pass.
func (w *gridWorkload) traced(name string, tr *tracer, p *probe, l *layers, t *tally) {
	for _, c := range w.last.runs {
		l.cells[c.sp.ID] = w.last.cells[c.key()]
	}
	ws := tr.begin("workload", name, -1, 0)
	op := 0
	for _, c := range w.last.runs {
		cs := tr.begin("cell", c.key(), ws, 0)
		k, isClique := cliqueK[c.sp.ID]
		if tab := w.last.tables[c.key()]; isClique && tab != nil {
			for _, rec := range tab.Records {
				op++
				t.op(replay(rec, k, tr, cs, op, p, l))
			}
		} else if tab, err := runCell(c); err != nil {
			t.op(err)
		} else {
			for i := range tab.Records {
				st, err := recordStats(tab, i)
				if err == nil {
					err = repeats(w.first, w.pinned, fmt.Sprintf("%s#%d", c.key(), i), st)
				}
				t.op(err)
			}
		}
		tr.end(cs)
	}
	tr.end(ws)
}

// replay re-executes one clique record from its topology, seed and
// params through the exported calls its runner makes (E1/E2:
// CongestedCliqueKCliques on a Congested-Clique engine; E3 and E11/E12:
// the body of clique.RunMuCongestTriangles, split so that sim.New and
// Run are timed apart). It fails unless the listing equals
// clique.ListAll and the rounds, messages and peak words equal the
// record's.
func replay(rec bench.Record, k int, tr *tracer, parent, op int, p *probe, l *layers) (err error) {
	what := fmt.Sprintf("%s#%d replay", rec.Cell, rec.Row)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", what, r)
		}
	}()
	opSpan := tr.begin("operation", fmt.Sprintf("%s#%d", rec.Cell, rec.Row), parent, op)
	defer tr.end(opSpan)

	tp, err := topo.Parse(rec.Topo)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	var g *graph.Graph
	var est topo.Estimate
	dTopo := timed(tr, p, "topo.build", rec.Topo, opSpan, op, func() {
		if g, err = tp.Build(rand.New(rand.NewSource(rec.Seed))); err == nil {
			est, err = tp.Estimate()
		}
	})
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	l.addTopo("", dTopo, est)
	var want []clique.Clique
	timed(tr, p, "clique.reference", rec.Topo, opSpan, op, func() { want = clique.ListAll(g, k) })

	t0 := time.Now()
	var (
		engTopo sim.Topology = g
		prog    func(*sim.Ctx)
	)
	switch rec.Exp {
	case "E1/E2":
		mu, perr := strconv.ParseInt(rec.Params["mu"], 10, 64)
		if perr != nil {
			return fmt.Errorf("%s: mu: %w", what, perr)
		}
		engTopo = sim.NewComplete(g.N())
		prog = clique.CongestedCliqueKCliques(g, k, mu, clique.NewOracleRouter(g.N()))
	case "E3", "E11/E12":
		cfg := clique.MuTriangleConfig{G: g, Mu: rec.Mu}
		if a, ok := rec.Params["alpha"]; ok {
			if cfg.Alpha, err = strconv.Atoi(a); err != nil {
				return fmt.Errorf("%s: alpha: %w", what, err)
			}
		}
		prog = clique.MuCongestTriangles(cfg, expander.NewRouter(cfg.G, cfg.Alpha))
	default:
		return fmt.Errorf("%s: no replay for experiment %s", what, rec.Exp)
	}
	var e *sim.Engine
	dNew := timed(tr, p, "sim.new", rec.Topo, opSpan, op, func() { e = sim.New(engTopo, sim.WithSeed(rec.Seed)) })
	var res *sim.Result
	dRun := timed(tr, p, "sim.run", rec.Topo, opSpan, op, func() { res, err = e.Run(prog) })
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	listed := clique.CollectTriangles(res)
	n := engTopo.N()
	l.cliqueRunS += time.Since(t0).Seconds()
	l.cliqueNodeRounds += float64(n) * float64(res.Rounds)
	l.listed += float64(len(listed))
	l.reference += float64(len(want))
	l.addSim("", dNew, dRun, n, res)

	if !clique.SameSet(listed, want) {
		return fmt.Errorf("%s: lists %d cliques, clique.ListAll finds %d (or the sets differ)", what, len(listed), len(want))
	}
	return sameAsRecord(what, rec, res)
}

// sameAsRecord fails unless a replay's result repeats the untraced
// record's rounds, messages and peak words.
func sameAsRecord(what string, rec bench.Record, res *sim.Result) error {
	if res.Rounds != rec.Rounds || res.Messages != rec.Messages || res.MaxPeakWords() != rec.PeakWords {
		return fmt.Errorf("%s: rounds/messages/peakWords %d/%d/%d, the untraced record has %d/%d/%d",
			what, res.Rounds, res.Messages, res.MaxPeakWords(), rec.Rounds, rec.Messages, rec.PeakWords)
	}
	return nil
}
