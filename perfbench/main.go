// Command perfbench is the repository's benchmark. It runs one workload
// of muexp's experiment grid or of its 1M-node engine mode in-process,
// checks every simulated execution, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a traced run) as one JSON
// line. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mucongest/internal/bench"
	"mucongest/internal/sim"
)

// maxPasses caps the passes of one run.
const maxPasses = 24

const (
	gridWorkloadName   = "grid"
	engineWorkloadName = "engine-1m"
)

var workloadNames = []string{gridWorkloadName, engineWorkloadName}

// workload is one benchmark workload.
type workload interface {
	// pass runs the workload once without tracing, checks every
	// operation into t and returns the pass's figures.
	pass(p *probe, t *tally) (passFigures, error)
	// traced runs it once under tr, recording per-layer figures in l.
	// It runs after at least one pass.
	traced(name string, tr *tracer, p *probe, l *layers, t *tally)
}

// passFigures are one untraced pass's end-to-end figures.
type passFigures struct {
	wall, setup, nodeRounds, cpu, allocMB float64
}

func newWorkload(name string, seed int64, procs int, pinned *pinnedDoc) (workload, error) {
	if name == engineWorkloadName {
		w := &engineWorkload{seed: seed, procs: procs, first: map[string]opStats{}}
		if pinned != nil {
			w.pinned = pinned.Ops
		}
		return w, nil
	}
	if name == gridWorkloadName {
		return newGridWorkload(bench.Specs(), seed, pinned), nil
	}
	return nil, fmt.Errorf("unknown workload %q; valid: %s", name, strings.Join(workloadNames, ", "))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", pinnedSeed, "workload seed (the root seed of every simulated execution)")
	seconds := fs.Float64("seconds", 10, "measure for at least this long (untraced runs)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run's per-layer metrics")
	pin := fs.String("pin", "", "write every workload's statistics at -seed to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	sim.SetDefaultWorkers(procs)

	if *pin != "" {
		if err := writePinned(*pin, *seed, procs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	var pinned *pinnedDoc
	if *seed == pinnedSeed {
		var err error
		if pinned, err = loadPinned(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	w, err := newWorkload(*name, *seed, procs, pinned)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	var res *result
	if *traceFlag == 1 {
		out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		res, err = tracedRun(*name, w, procs, out, stdout)
	} else {
		res, err = untracedRun(w, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "failed_ops %d/%d ops\n", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// settle collects garbage twice and returns free memory to the OS
// before a pass, outside its timing, so every pass starts from the same
// heap and resident set. The second cycle also empties the sync.Pool
// victim caches the engine recycles run state through.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// untracedRun makes passes for about seconds: it starts another pass
// while that pass, taking as long as the last one, would end in time, up
// to maxPasses. It reports the median of each end-to-end figure.
func untracedRun(w workload, seconds float64, stdout io.Writer) (*result, error) {
	p := newProbe()
	var t tally
	var walls, setups, rates, cpus, allocs, peaks []float64
	start := time.Now()
	for last := 0.0; len(walls) < maxPasses; {
		if len(walls) > 0 && time.Since(start).Seconds()+last > seconds {
			break
		}
		t0 := time.Now()
		settle()
		rss := startRSS()
		f, err := w.pass(p, &t)
		peak := rss.finish()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		walls = append(walls, f.wall)
		setups = append(setups, f.setup)
		rates = append(rates, f.nodeRounds/f.wall)
		cpus = append(cpus, f.cpu)
		allocs = append(allocs, f.allocMB)
		last = time.Since(t0).Seconds()
	}
	vals := map[string]float64{
		"wall_s":            median(walls),
		"setup_s":           median(setups),
		"node_rounds_per_s": median(rates),
		"cpu_s":             median(cpus),
		"alloc_mb":          median(allocs),
		"peak_rss_mb":       median(peaks),
	}
	fmt.Fprintf(stdout, "passes %d, wall_s each: %.4g\n", len(walls), walls)
	return report(endToEnd, vals, &t, stdout), nil
}

// tracedRun makes one untraced pass, the reference for the tracing
// overhead and the records the clique replays must repeat, then one
// traced pass; it writes the spans to traceOut.
func tracedRun(name string, w workload, procs int, traceOut string, stdout io.Writer) (*result, error) {
	p := newProbe()
	var t tally
	settle()
	f, err := w.pass(p, &t)
	if err != nil {
		return nil, err
	}
	settle()
	tr := newTracer()
	l := newLayers()
	t0 := time.Now()
	w.traced(name, tr, p, l, &t)
	tracedWall := time.Since(t0).Seconds()

	vals := l.metrics(procs)
	vals["trace.overhead"] = tracedWall/f.wall - 1
	vals["trace.spans"] = float64(len(tr.spans))
	self := selfTimes(tr.spans)
	for _, n := range spanNames {
		vals["trace.self_s."+n] = self[n]
	}
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans %s\n", traceOut)
	return report(perLayer(), vals, &t, stdout), nil
}

// report prints every metric of defs by name and unit (0 where vals
// has none) and any failed operations, and builds the result.
func report(defs []def, vals map[string]float64, t *tally, stdout io.Writer) *result {
	r := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := vals[d.name]
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	for i, p := range t.problems {
		if i == 10 {
			fmt.Fprintf(stdout, "FAIL ... %d more\n", len(t.problems)-i)
			break
		}
		fmt.Fprintln(stdout, "FAIL", p)
	}
	return r
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writePinned runs one pass of every workload at seed, unchecked
// against any pinned file, and writes their statistics to path.
func writePinned(path string, seed int64, procs int) error {
	doc := pinnedDoc{Seed: seed, Ops: map[string]opStats{}}
	for _, name := range workloadNames {
		w, err := newWorkload(name, seed, procs, nil)
		if err != nil {
			return err
		}
		passes := 1
		if _, grid := w.(*gridWorkload); grid {
			passes = gridRootSeeds
		}
		var t tally
		for i := 0; i < passes; i++ {
			if _, err := w.pass(newProbe(), &t); err != nil {
				return err
			}
		}
		if t.failed > 0 {
			return fmt.Errorf("%s: %d failed operations: %s", name, t.failed, t.problems[0])
		}
		var first map[string]opStats
		switch w := w.(type) {
		case *gridWorkload:
			first = w.first
		case *engineWorkload:
			first = w.first
		}
		for k, st := range first {
			doc.Ops[k] = st
		}
	}
	return writePinnedDoc(path, doc)
}
