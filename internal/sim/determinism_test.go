package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mucongest/internal/graph"
)

// detProgram is a mixed workload for the determinism regression tests:
// per-node-RNG-driven sends, inbox-order-sensitive folds, early node
// termination (so some messages are dropped) and memory traffic.
func detProgram(c *Ctx) {
	c.Charge(int64(c.ID()%3 + 1))
	for r := 0; r < 8; r++ {
		for _, u := range c.Neighbors() {
			if c.Rand().Intn(2) == 0 {
				c.SendID(u, Msg{Kind: 1, A: int64(c.ID()), B: int64(r), C: c.Rand().Int63n(1 << 20)})
			}
		}
		in := c.Tick()
		var h int64
		for i, m := range in {
			// Order-sensitive fold: any change in inbox ordering changes h.
			h = h*1_000_003 + int64(m.From+1)*31 + m.Msg.C + int64(i+1)
		}
		c.Emit(h)
		if c.ID()%5 == 2 && r == 3 {
			return // early finish: later messages to this node are dropped
		}
	}
}

// Golden digests of detProgram's externally visible execution record,
// recorded on the pre-bucketed-routing engine. Shared between the
// goroutine-mode regressions below and the step-mode parity suite
// (step_test.go): both execution modes must reproduce the same
// constants bit for bit, for every InboxOrder and worker count.
var (
	// NewComplete(12), seed 42 — single shard.
	goldenComplete12 = map[InboxOrder]uint64{
		OrderBySender: 0x1869edabe99e8f71,
		OrderRandom:   0x4a46a3b848ff6d9e,
		OrderReversed: 0xb1ba131f94737889,
	}
	// graph.Cycle(1536), seed 7 — 3 shards, uniform degree.
	goldenCycle1536 = map[InboxOrder]uint64{
		OrderBySender: 0x5063c57af0676ab3,
		OrderRandom:   0xc666c7d3c587cf4b,
		OrderReversed: 0xc92d294f547ec64b,
	}
	// graph.BarabasiAlbert(1536, 3, rng seed 13), seed 7 — 3 shards,
	// heavy-tailed degree.
	goldenPowerlaw1536 = map[InboxOrder]uint64{
		OrderBySender: 0xc407122fa3770141,
		OrderRandom:   0x8466b52c996b7f7b,
		OrderReversed: 0x34a9fe10e8b1bd5e,
	}
)

// digestResult folds the externally visible execution record into one
// hash: Rounds, Messages, Dropped, Outputs and PeakWords.
func digestResult(res *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "r=%d m=%d d=%d|", res.Rounds, res.Messages, res.Dropped)
	for i, out := range res.Outputs {
		fmt.Fprintf(h, "o%d:%v|", i, out)
	}
	for i, p := range res.PeakWords {
		fmt.Fprintf(h, "p%d:%d|", i, p)
	}
	return h.Sum64()
}

func runDet(t *testing.T, order InboxOrder, seed int64, opts ...Option) *Result {
	t.Helper()
	e := New(NewComplete(12), append([]Option{WithSeed(seed), WithInboxOrder(order)}, opts...)...)
	res, err := e.Run(detProgram)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismRegression runs the same program twice with equal seeds
// under every InboxOrder and requires identical Rounds, Messages,
// Outputs and PeakWords. It also pins each digest to a golden value
// recorded on the pre-bucketed-routing engine, so the O(m) routing
// rewrite is provably bit-for-bit compatible (including the engine-RNG
// consumption order of OrderRandom).
func TestDeterminismRegression(t *testing.T) {
	for order, want := range goldenComplete12 {
		a := runDet(t, order, 42)
		b := runDet(t, order, 42)
		if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Dropped != b.Dropped {
			t.Fatalf("order %v: totals differ across equal-seed runs: %+v vs %+v", order, a, b)
		}
		for i := range a.Outputs {
			if fmt.Sprint(a.Outputs[i]) != fmt.Sprint(b.Outputs[i]) {
				t.Fatalf("order %v: node %d outputs differ: %v vs %v", order, i, a.Outputs[i], b.Outputs[i])
			}
			if a.PeakWords[i] != b.PeakWords[i] {
				t.Fatalf("order %v: node %d peak differs: %d vs %d", order, i, a.PeakWords[i], b.PeakWords[i])
			}
		}
		if got := digestResult(a); got != want {
			t.Errorf("order %v: digest = %#x, want golden %#x", order, got, want)
		}
		// The sharded delivery path must hit the same goldens for every
		// worker count (here a single shard: the pool is capped at the
		// shard count, pinning the serial-inline degradation).
		for _, w := range []int{2, 4, 0} {
			if got := digestResult(runDet(t, order, 42, WithSimWorkers(w))); got != want {
				t.Errorf("order %v, workers %d: digest = %#x, want golden %#x", order, w, got, want)
			}
		}
	}
}

// TestShardedDeterminismAcrossWorkers pins the tentpole invariant of the
// sharded delivery path on a topology spanning multiple shards
// (n = 1536 > ShardSpan, i.e. 3 shards): for every InboxOrder the digest
// is a golden constant, bit-for-bit identical for every worker count —
// including OrderRandom, whose permutations draw from per-shard RNG
// streams derived only from the engine seed and the shard layout.
//
// The strict sweep runs the same workload in strict-memory mode with a
// μ no node ever reaches: strict runs split the fused account+resume
// phase into separate barriers, so the digests prove the split path and
// the fused fast path are observably identical under the zero-channel
// barrier.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	if n := 3 * ShardSpan; n != 1536 {
		t.Fatalf("ShardSpan changed (%d); re-deriving the golden digests below is required", ShardSpan)
	}
	topo := graph.Cycle(1536)
	for order, want := range goldenCycle1536 {
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			for _, strict := range []bool{false, true} {
				opts := []Option{WithSeed(7), WithInboxOrder(order), WithSimWorkers(w)}
				if strict {
					opts = append(opts, WithMu(1<<40), WithStrictMemory())
				}
				e := New(topo, opts...)
				res, err := e.Run(detProgram)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestResult(res); got != want {
					t.Errorf("order %v, workers %d, strict %v: digest = %#x, want golden %#x",
						order, w, strict, got, want)
				}
			}
		}
	}
}

// TestNodeErrorAbortDeterministicAcrossWorkers pins the abort path of
// the zero-channel barrier on a multi-shard topology: two nodes in
// different shards fail at the same barrier, and for every worker count
// the run must (a) report the lowest-id failure — error harvesting
// walks shards and node ids in ascending order, where the old serial
// collect loop reported whichever signal happened to arrive first —
// and (b) produce an identical Result for the rounds that completed.
func TestNodeErrorAbortDeterministicAcrossWorkers(t *testing.T) {
	topo := graph.Cycle(1536)
	program := func(c *Ctx) {
		for r := 0; ; r++ {
			for _, u := range c.Neighbors() {
				c.SendID(u, Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
			}
			in := c.Tick()
			var h int64
			for i, m := range in {
				h = h*1_000_003 + int64(m.From+1)*31 + int64(i+1)
			}
			c.Emit(h)
			if r == 2 && (c.ID() == 300 || c.ID() == 900) {
				panic(fmt.Sprintf("node %d exploded", c.ID()))
			}
		}
	}
	var wantDigest uint64
	var wantErr string
	for i, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		e := New(topo, WithSeed(7), WithSimWorkers(w))
		res, err := e.Run(program)
		// The same failure while a third of the nodes (in every shard)
		// sleep in Idle across the failing barrier: the abort must wake
		// them exactly where the k-Tick loop unwinds.
		sleepRes, sleepErr := runIdleForms(t, topo, func(idle func(*Ctx, int)) func(*Ctx) {
			return func(c *Ctx) {
				for r := 0; ; r++ {
					for _, u := range c.Neighbors() {
						c.SendID(u, Msg{Kind: 1, A: int64(c.ID()), B: int64(r)})
					}
					if r == 1 && c.ID()%3 == 1 {
						idle(c, 4)
						c.Emit(int64(c.Round()))
						continue
					}
					c.Emit(int64(len(c.Tick())))
					if r == 2 && (c.ID() == 300 || c.ID() == 900) {
						panic(fmt.Sprintf("node %d exploded", c.ID()))
					}
				}
			}
		}, WithSeed(7), WithSimWorkers(w))
		if sleepErr == nil || !strings.Contains(sleepErr.Error(), "node 300 exploded") || sleepRes.Rounds != 4 {
			t.Fatalf("workers %d with sleepers: err = %v, Rounds = %d; want node 300's error after 4 rounds", w, sleepErr, sleepRes.Rounds)
		}
		if err == nil {
			t.Fatalf("workers %d: expected node panic to surface as run error", w)
		}
		// Node 300 lives in shard 0, node 900 in shard 1; the harvest
		// must deterministically pick node 300.
		if want := "node 300 exploded"; !strings.Contains(err.Error(), want) {
			t.Fatalf("workers %d: err = %v, want the lowest failing node's error (%q)", w, err, want)
		}
		got := digestResult(res)
		if i == 0 {
			wantDigest, wantErr = got, err.Error()
			continue
		}
		if got != wantDigest {
			t.Errorf("workers %d: abort-run digest = %#x, want %#x", w, got, wantDigest)
		}
		if err.Error() != wantErr {
			t.Errorf("workers %d: err = %q, want %q", w, err.Error(), wantErr)
		}
	}
}

// TestShardedDeterminismPowerlaw extends the golden digest pinning to a
// skewed-degree topology: a 3-shard Barabási–Albert graph, whose hubs
// concentrate routing into a few destinations (the opposite load shape
// of the uniform cycle above). For every InboxOrder the digest is a
// golden constant, bit-for-bit identical for every worker count.
func TestShardedDeterminismPowerlaw(t *testing.T) {
	if ShardSpan != 512 {
		t.Fatalf("ShardSpan changed (%d); re-deriving the golden digests below is required", ShardSpan)
	}
	topo := graph.BarabasiAlbert(1536, 3, rand.New(rand.NewSource(13)))
	for order, want := range goldenPowerlaw1536 {
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			e := New(topo, WithSeed(7), WithInboxOrder(order), WithSimWorkers(w))
			res, err := e.Run(detProgram)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("order %v, workers %d: digest = %#x, want golden %#x", order, w, got, want)
			}
		}
	}
}
