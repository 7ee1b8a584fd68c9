package sim

import (
	"runtime/debug"
	"testing"

	"mucongest/internal/graph"
)

// TestSteadyStateRoundAllocFree pins the engine's steady-state round
// path to zero allocations per round: every buffer the round loop
// touches — staged outboxes, transfer buckets, inboxes, the bandwidth
// meter, the barrier — must be reused once warmed up. It measures the
// allocation *delta* between a short run and a long run of the same
// broadcast workload on a mid-size multi-shard cycle, so setup and
// warm-up allocations (goroutines, channels on a cold scratch pool,
// first-round buffer growth) cancel out and only the per-round cost
// remains.
func TestSteadyStateRoundAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc accounting is meaningless under -race")
	}
	// A GC cycle mid-measurement evicts the engine's scratch pool, and
	// the following run's full re-setup (~hundreds of allocs) would land
	// in the delta as a false positive. Alloc accounting, not memory
	// behavior, is under test — so pause GC for its duration.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	topo := graph.Cycle(2048) // 4 shards: the sharded delivery path, not the n ≤ 512 degenerate case
	const n = 2048
	const base, long = 8, 40
	var runErr error
	run := func(rounds int, workers int) {
		e := New(topo, WithSeed(1), WithSimWorkers(workers))
		program := func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
				c.Tick()
			}
		}
		if _, err := e.Run(program); err != nil && runErr == nil {
			runErr = err
		}
	}
	// The empty-plan twin pins that merely passing WithFaults with a
	// zero FaultPlan keeps the allocation-free hot path: hasFaults stays
	// false, so no fault branch, stream or scratch is ever touched.
	runEmptyFaults := func(rounds int, workers int) {
		e := New(topo, WithSeed(1), WithSimWorkers(workers), WithFaults(FaultPlan{}))
		program := func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
				c.Tick()
			}
		}
		if _, err := e.Run(program); err != nil && runErr == nil {
			runErr = err
		}
	}
	// The idle twin puts every other node to sleep in Idle between its
	// broadcasts: the sleep path — metering and discarding the inbox of
	// a node that is not resumed, and the barrier subtraction — must be
	// as allocation-free as a Tick.
	runIdle := func(rounds int, workers int) {
		e := New(topo, WithSeed(1), WithSimWorkers(workers))
		program := func(c *Ctx) {
			for r := 0; r < rounds; r += 2 {
				c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
				if c.ID()%2 == 0 {
					c.Idle(2)
				} else {
					c.Tick()
					c.Tick()
				}
			}
		}
		if _, err := e.Run(program); err != nil && runErr == nil {
			runErr = err
		}
	}
	// The step-mode twin drives the same broadcast workload through the
	// goroutine-free runtime: its per-round path (step dispatch, inline
	// Step calls, outbox staging) must be exactly as allocation-free as
	// the goroutine path. The machines are pre-allocated outside the
	// measured runs, mirroring how the goroutine closure is shared.
	stepProgs := make([]allocBroadcastStep, n)
	runStep := func(rounds int, workers int) {
		for i := range stepProgs {
			stepProgs[i] = allocBroadcastStep{rounds: rounds}
		}
		e := New(topo, WithSeed(1), WithSimWorkers(workers))
		prog := Steps(func(c *Ctx) StepProgram { return &stepProgs[c.ID()] })
		if _, err := e.RunProgram(prog); err != nil && runErr == nil {
			runErr = err
		}
	}
	for _, mode := range []struct {
		name string
		run  func(rounds, workers int)
	}{{"goroutine", run}, {"step", runStep}, {"emptyfaults", runEmptyFaults}, {"idle", runIdle}} {
		for _, workers := range []int{1, 4} {
			short := testing.AllocsPerRun(5, func() { mode.run(base, workers) })
			full := testing.AllocsPerRun(5, func() { mode.run(long, workers) })
			if runErr != nil {
				t.Fatal(runErr)
			}
			perRound := (full - short) / float64(long-base)
			// Zero, with only float headroom: a real regression (per-node or
			// per-message allocation) costs thousands per round at n=2048.
			if perRound > 0.01 {
				t.Errorf("mode=%s workers=%d: steady-state round allocates: %.2f allocs/round (short=%.0f, long=%.0f)",
					mode.name, workers, perRound, short, full)
			}
		}
	}
}

// allocBroadcastStep is the step-form twin of the broadcast program in
// TestSteadyStateRoundAllocFree.
type allocBroadcastStep struct{ rounds, r int }

func (s *allocBroadcastStep) Step(c *Ctx, in []Incoming) bool {
	if s.r >= s.rounds {
		return false
	}
	c.Broadcast(Msg{Kind: 1, A: int64(c.ID()), B: int64(s.r)})
	s.r++
	return true
}
