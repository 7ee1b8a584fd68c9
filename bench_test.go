package mucongest

import (
	"io"
	"math/rand"
	"testing"

	"mucongest/internal/bench"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// One benchmark per experiment of README.md's E1–E12 map. Each iteration runs the
// whole experiment (workload generation + simulation sweep); reported
// ns/op therefore tracks the end-to-end cost of regenerating the
// corresponding paper table. Sizes are scaled down from cmd/muexp's
// defaults to keep `go test -bench=.` snappy.

func runTables(b *testing.B, f func() *bench.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := f()
		t.Fprint(io.Discard)
	}
}

func BenchmarkE1_LowerBoundTightness(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E1E2(topo.MustParse("gnp:n=36,p=0.5"), 4, 1) })
}

func BenchmarkE2_CliqueListingCC(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E1E2(topo.MustParse("gnp:n=32,p=0.5"), 3, 1) })
}

func BenchmarkE3_TriangleMuCongest(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E3(topo.MustParse("gnp:n=40,p=0.5"), 1) })
}

func BenchmarkE4_PPassSimulation(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E4E5(topo.MustParse("cycliques:k=3,size=6"), 1) })
}

func BenchmarkE5_CycleOfCliques(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E4E5(topo.MustParse("cycliques:k=4,size=6"), 2) })
}

func BenchmarkE6_RandomOrderShuffle(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E6(topo.MustParse("hub:n=14,p=0.4"), 1) })
}

func BenchmarkE7_OneWayGK(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E7(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}

func BenchmarkE8_FullyMergeableMG(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E8(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}

func BenchmarkE9_ComposableCRPrecis(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E9(topo.MustParse("gnp:n=16,p=0.15,conn=1"), 1) })
}

func BenchmarkE10_MonochromaticTriangles(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E10(topo.MustParse("gnp:n=24,p=0.5"), 1) })
}

// The BenchmarkEngineRound* family isolates the engine round loop
// (staging, routing, inbox ordering, memory accounting) from any
// algorithm logic: every node broadcasts every round for a fixed number
// of rounds. ns/op and allocs/op therefore track the per-round engine
// overhead that every experiment pays.

func benchEngineRounds(b *testing.B, topo sim.Topology, rounds int, opts ...sim.Option) {
	b.Helper()
	b.ReportAllocs()
	program := bench.BroadcastProgram(rounds)
	for i := 0; i < b.N; i++ {
		e := sim.New(topo, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
		if _, err := e.Run(program); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineRoundsStep runs the identical workload in goroutine-free
// step mode: the machines are pre-allocated outside the timer once and
// reset per iteration, so ns/op isolates the engine's round loop (bind,
// route, account, inline step dispatch) exactly as the goroutine cells
// isolate theirs.
func benchEngineRoundsStep(b *testing.B, topo sim.Topology, rounds int, opts ...sim.Option) {
	b.Helper()
	b.ReportAllocs()
	prog := bench.BroadcastSteps(topo.N(), rounds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(topo, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
		if _, err := e.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngineRoundsStepWarm is benchEngineRoundsStep with one untimed
// warm-up run: the first run at a given scale pays one-time growth of
// the shared run-scratch pools, so cold single-iteration numbers swing
// with whatever ran before. The warm cells measure the steady-state
// round loop — reproducible enough at -benchtime 1x for the CI perf
// gate to ratio allocations tightly (ROADMAP item 5's warm-iteration
// bench-record mode).
func benchEngineRoundsStepWarm(b *testing.B, topo sim.Topology, rounds int, opts ...sim.Option) {
	b.Helper()
	prog := bench.BroadcastSteps(topo.N(), rounds)
	run := func() {
		e := sim.New(topo, append([]sim.Option{sim.WithSeed(1)}, opts...)...)
		if _, err := e.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm-up, untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkEngineRoundDense64(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(64), 32)
}

func BenchmarkEngineRoundSparseRing1024(b *testing.B) {
	benchEngineRounds(b, graph.Cycle(1024), 32)
}

func BenchmarkEngineRoundRandomOrder64(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(64), 32, sim.WithInboxOrder(sim.OrderRandom))
}

func BenchmarkEngineRoundReversed64(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(64), 32, sim.WithInboxOrder(sim.OrderReversed))
}

// BenchmarkEngineRoundBroadcastComplete512 isolates the per-message
// send path at high fan-out: 512 nodes broadcasting on the implicit
// complete topology is ~262k Send meters + routed appends per round,
// all through the NeighborAt port arithmetic (no materialized
// adjacency), so ns/op tracks Ctx.Broadcast/Send overhead directly.
func BenchmarkEngineRoundBroadcastComplete512(b *testing.B) {
	benchEngineRounds(b, sim.NewComplete(512), 4)
}

// Large-scale cells: the engine round loop at 65536 nodes, the scale the
// sharded delivery path is built for. The Workers1/Workers4/WorkersMax
// triple measures the parallel-delivery speedup directly (identical
// results, different wall-clock); torus and powerlaw cover structured
// and heavy-tailed degree distributions at the same scale. Setup
// (graph generation) happens once per benchmark, outside the timer.

var benchLargeTopo = struct {
	cycle, cycle1m, torus, powerlaw, powerlaw1m sim.Topology
}{}

func largeCycle() sim.Topology {
	if benchLargeTopo.cycle == nil {
		benchLargeTopo.cycle = graph.Cycle(65536)
	}
	return benchLargeTopo.cycle
}

func benchEngineLarge(b *testing.B, topo sim.Topology, workers int) {
	b.Helper()
	b.ResetTimer()
	benchEngineRounds(b, topo, 4, sim.WithSimWorkers(workers))
}

func BenchmarkEngineRoundCycle65536Workers1(b *testing.B) {
	benchEngineLarge(b, largeCycle(), 1)
}

func BenchmarkEngineRoundCycle65536Workers4(b *testing.B) {
	benchEngineLarge(b, largeCycle(), 4)
}

func BenchmarkEngineRoundCycle65536WorkersMax(b *testing.B) {
	benchEngineLarge(b, largeCycle(), 0) // 0 = GOMAXPROCS
}

// The Step triple is the A/B counterpart of the three cells above: the
// identical broadcast workload on the identical topology, but driven
// goroutine-free through the step runtime. The goroutine cells pay
// 65536 goroutine spawns + barrier hand-offs per op; these pay a bind
// phase and inline step dispatch inside the delivery workers.

func benchEngineLargeStep(b *testing.B, topo sim.Topology, workers int) {
	b.Helper()
	benchEngineRoundsStep(b, topo, 4, sim.WithSimWorkers(workers))
}

func BenchmarkEngineRoundCycle65536StepWorkers1(b *testing.B) {
	benchEngineLargeStep(b, largeCycle(), 1)
}

func BenchmarkEngineRoundCycle65536StepWorkers4(b *testing.B) {
	benchEngineLargeStep(b, largeCycle(), 4)
}

func BenchmarkEngineRoundCycle65536StepWorkersMax(b *testing.B) {
	benchEngineLargeStep(b, largeCycle(), 0)
}

// BenchmarkEngineRoundCycle1MStep is the scale smoke the goroutine
// runtime cannot reasonably serve: a full broadcast round loop over a
// one-million-node cycle, goroutine-free. Run with -benchtime 1x in CI;
// a single op proves a routine 1M-node run completes and bounds its
// wall-clock.
func BenchmarkEngineRoundCycle1MStep(b *testing.B) {
	if benchLargeTopo.cycle1m == nil {
		benchLargeTopo.cycle1m = graph.Cycle(1 << 20)
	}
	b.ResetTimer()
	benchEngineRoundsStep(b, benchLargeTopo.cycle1m, 2, sim.WithSimWorkers(0))
}

func BenchmarkEngineRoundTorus65536(b *testing.B) {
	if benchLargeTopo.torus == nil {
		benchLargeTopo.torus = graph.Torus(256, 256)
	}
	benchEngineLarge(b, benchLargeTopo.torus, 0)
}

// BenchmarkEngineRoundPowerlaw65536 drives heavy-tailed degrees at
// 65536 nodes on the CSR-backed graph, goroutine-free and warm:
// the per-round engine cost on the representation and runtime the
// large-n experiments actually use. Through PR9 this cell ran the
// explicit graph.Graph in goroutine mode, cold — 1.05 s and 112 MB per
// op (BENCH_PR9.json, retired to git history); the CSR + step + warm
// combination is the tentpole speedup the PR10 baseline records.
func BenchmarkEngineRoundPowerlaw65536(b *testing.B) {
	if benchLargeTopo.powerlaw == nil {
		benchLargeTopo.powerlaw = graph.BarabasiAlbert(65536, 3, rand.New(rand.NewSource(1)))
	}
	benchEngineRoundsStepWarm(b, benchLargeTopo.powerlaw, 4, sim.WithSimWorkers(0))
}

// The 1M cells pin the large-n story end to end: a million-node
// power-law CSR (built once, outside the timer) and a million-node
// implicit torus (O(1) memory, port arithmetic only) each complete a
// goroutine-free broadcast round loop. Run with -benchtime 1x in CI; a
// single op proves the representation layer serves engine rounds at
// the scale the explicit adjacency could not hold.

func BenchmarkEngineRoundPowerlaw1MStep(b *testing.B) {
	if benchLargeTopo.powerlaw1m == nil {
		benchLargeTopo.powerlaw1m = graph.BarabasiAlbert(1<<20, 3, rand.New(rand.NewSource(1)))
	}
	benchEngineRoundsStep(b, benchLargeTopo.powerlaw1m, 2, sim.WithSimWorkers(0))
}

func BenchmarkEngineRoundTorus1MStep(b *testing.B) {
	benchEngineRoundsStep(b, sim.NewTorus(1024, 1024), 2, sim.WithSimWorkers(0))
}

// BenchmarkEngineRoundComplete65536Setup pins the implicit Complete
// topology: engine construction plus one-node port arithmetic at a
// scale where the old explicit adjacency (O(n²) ints) was unbuildable.
func BenchmarkEngineRoundComplete65536Setup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := sim.NewComplete(65536)
		e := sim.New(c, sim.WithSeed(1))
		if e.N() != 65536 || c.PortOf(0, 65535) != 65534 {
			b.Fatal("bad complete topology")
		}
	}
}

func BenchmarkE11_RoutingTradeoff(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E11E12(topo.MustParse("gnp:n=28,p=0.5"), 1) })
}

func BenchmarkE12_DecompTradeoff(b *testing.B) {
	runTables(b, func() *bench.Table { return bench.E11E12(topo.MustParse("gnp:n=32,p=0.5"), 2) })
}
