package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mucongest/internal/graph"
)

// idleForms are the two ways a program can idle for k rounds: the
// engine sleep (Ctx.Idle) and the naive loop of k Ticks it must be
// indistinguishable from. Tests that exercise Idle run their program
// under both and require identical results (see sameRun).
var idleForms = []struct {
	name string
	idle func(c *Ctx, k int)
}{
	{"sleep", (*Ctx).Idle},
	{"loop", func(c *Ctx, k int) {
		for i := 0; i < k; i++ {
			c.Tick()
		}
	}},
}

// runIdleForms runs mk's program once per idle form on a fresh engine
// and requires the runs to agree exactly; it returns the sleep form's
// outcome for the caller's own assertions.
func runIdleForms(t *testing.T, topo Topology, mk func(idle func(*Ctx, int)) func(*Ctx), opts ...Option) (*Result, error) {
	t.Helper()
	var res [2]*Result
	var errs [2]error
	for i, f := range idleForms {
		res[i], errs[i] = New(topo, opts...).Run(mk(f.idle))
	}
	sameRun(t, "sleep vs loop", res[0], errs[0], res[1], errs[1])
	return res[0], errs[0]
}

// sameRun fails the test unless two runs have the same error string,
// the same digest (rounds, messages, drops, outputs, peaks) and the
// same violation records.
func sameRun(t *testing.T, what string, a *Result, aErr error, b *Result, bErr error) {
	t.Helper()
	if fmt.Sprint(aErr) != fmt.Sprint(bErr) {
		t.Fatalf("%s: err %v vs %v", what, aErr, bErr)
	}
	if da, db := digestResult(a), digestResult(b); da != db {
		t.Fatalf("%s: digest %#x vs %#x (rounds %d vs %d, outputs %v vs %v)",
			what, da, db, a.Rounds, b.Rounds, a.Outputs, b.Outputs)
	}
	if va, vb := fmt.Sprint(a.Violations), fmt.Sprint(b.Violations); va != vb {
		t.Fatalf("%s: violations %s vs %s", what, va, vb)
	}
}

func TestTokenPassingRounds(t *testing.T) {
	// Pass a token from node 0 to node n-1 along a path; takes n-1 rounds.
	n := 10
	e := New(graph.Path(n))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendID(1, Msg{Kind: 7, A: 42})
		}
		for {
			in := c.Tick()
			if len(in) == 0 {
				if c.Round() >= n {
					return
				}
				continue
			}
			for _, m := range in {
				if m.Msg.Kind == 7 {
					if c.ID() == n-1 {
						c.Emit(m.Msg.A)
						return
					}
					if m.From == c.ID()-1 {
						c.SendID(c.ID()+1, m.Msg)
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[n-1]; len(got) != 1 || got[0].(int64) != 42 {
		t.Fatalf("token not delivered: %v", got)
	}
	if res.Rounds < n-1 {
		t.Fatalf("token arrived in %d rounds, need ≥ %d", res.Rounds, n-1)
	}
}

func TestBroadcastAllReceive(t *testing.T) {
	topo := NewComplete(8)
	e := New(topo, WithSeed(3))
	res, err := e.Run(func(c *Ctx) {
		c.Broadcast(Msg{A: int64(c.ID())})
		in := c.Tick()
		if len(in) != c.N()-1 {
			c.Emit(-1)
			return
		}
		sum := int64(0)
		for _, m := range in {
			sum += m.Msg.A
		}
		c.Emit(sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, out := range res.Outputs {
		want := int64(28 - id) // sum 0..7 minus self
		if out[0].(int64) != want {
			t.Fatalf("node %d got %v want %d", id, out[0], want)
		}
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if res.Messages != 8*7 {
		t.Fatalf("messages = %d, want 56", res.Messages)
	}
}

func TestEdgeCapEnforced(t *testing.T) {
	e := New(graph.Path(2))
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.Send(0, Msg{})
			c.Send(0, Msg{}) // second message on same edge, same round
		}
		c.Tick()
	})
	if err == nil {
		t.Fatal("expected edge-cap violation error")
	}
}

func TestEdgeCapOption(t *testing.T) {
	e := New(graph.Path(2), WithEdgeCap(3))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			for i := 0; i < 3; i++ {
				c.Send(0, Msg{A: int64(i)})
			}
		}
		in := c.Tick()
		c.Emit(len(in))
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1][0].(int) != 3 {
		t.Fatalf("node 1 received %v messages, want 3", res.Outputs[1][0])
	}
}

func TestNegativeEdgeCapFailsFast(t *testing.T) {
	// A nonsensical negative cap must make the very first Send panic
	// (as it did when the meter compared ints), not wrap into an
	// effectively unlimited unsigned cap.
	e := New(graph.Path(2), WithEdgeCap(-1))
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.Send(0, Msg{})
		}
		c.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "edge capacity") {
		t.Fatalf("err = %v, want an edge-capacity panic on the first Send", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	e := New(graph.Path(3), WithMu(10))
	res, err := e.Run(func(c *Ctx) {
		c.Charge(4)
		c.Tick()
		c.Release(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
	for _, p := range res.PeakWords {
		if p != 4 {
			t.Fatalf("peak = %d, want 4", p)
		}
	}
}

func TestMemoryViolationRecorded(t *testing.T) {
	e := New(graph.Path(3), WithMu(2))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			// 2 neighbors send -> inbox of 2 words, plus 1 charged word = 3 > μ=2.
			c.Charge(1)
		} else {
			c.SendID(1, Msg{})
		}
		c.Tick()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Violations[0].Node != 1 {
		t.Fatalf("violations = %v, want one at node 1", res.Violations)
	}
	// Overruns delivered to a sleeping node: each is recorded at the
	// barrier it happens, the node sleeps on, and OverRounds counts
	// only the rounds it was over.
	res, err = runIdleForms(t, graph.Path(3), func(idle func(*Ctx, int)) func(*Ctx) {
		return func(c *Ctx) {
			if c.ID() == 1 {
				idle(c, 5)
				c.Emit(int64(c.Round()))
				return
			}
			c.Tick()
			c.SendID(1, Msg{})
			c.Tick()
			c.SendID(1, Msg{})
			c.Tick()
		}
	}, WithMu(1))
	if err != nil {
		t.Fatal(err)
	}
	want := []Violation{{Node: 1, Round: 1, Words: 2 * MsgWords, OverRounds: 2}}
	if fmt.Sprint(res.Violations) != fmt.Sprint(want) {
		t.Fatalf("violations %v, want %v", res.Violations, want)
	}
	if got := res.Outputs[1][0].(int64); got != 5 || res.Rounds != 5 {
		t.Fatalf("sleeper woke at Round() = %d, run Rounds = %d; want 5 and 5", got, res.Rounds)
	}
}

func TestViolationDedupPerNode(t *testing.T) {
	// Node 1 receives 2 messages per round for 6 rounds while holding 1
	// charged word: over μ=2 every round. The run must record exactly ONE
	// Violation for node 1, carrying the first overrun's round and an
	// over-μ round count of 6 — not one entry per round.
	const rounds = 6
	e := New(graph.Path(3), WithMu(2))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			c.Charge(1)
			c.Idle(rounds)
			return
		}
		for r := 0; r < rounds; r++ {
			c.SendID(1, Msg{})
			c.Tick()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one (deduped per node)", res.Violations)
	}
	v := res.Violations[0]
	if v.Node != 1 || v.Round != 0 || v.Words != 3 {
		t.Fatalf("first overrun = %+v, want node 1, round 0, 3 words", v)
	}
	if v.OverRounds != rounds {
		t.Fatalf("OverRounds = %d, want %d", v.OverRounds, rounds)
	}
	if res.OverMuRounds() != rounds {
		t.Fatalf("OverMuRounds() = %d, want %d", res.OverMuRounds(), rounds)
	}
}

func TestViolationOrderedByFirstOccurrence(t *testing.T) {
	// Node 2 goes over μ in round 0, node 0 in round 1; Violations must
	// list node 2 first (order of first occurrence, not node id).
	e := New(NewComplete(3), WithMu(1))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() != 2 {
			c.SendID(2, Msg{}) // round 0: node 2's inbox = 2 > μ
		}
		c.Tick()
		if c.ID() != 0 {
			c.SendID(0, Msg{}) // round 1: node 0's inbox = 2 > μ
		}
		c.Tick()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %v, want two", res.Violations)
	}
	if res.Violations[0].Node != 2 || res.Violations[0].Round != 0 {
		t.Fatalf("first violation = %+v, want node 2 at round 0", res.Violations[0])
	}
	if res.Violations[1].Node != 0 || res.Violations[1].Round != 1 {
		t.Fatalf("second violation = %+v, want node 0 at round 1", res.Violations[1])
	}
}

func TestStrictMemoryAborts(t *testing.T) {
	e := New(graph.Path(3), WithMu(1), WithStrictMemory())
	_, err := e.Run(func(c *Ctx) {
		if c.ID() != 1 {
			c.SendID(1, Msg{})
		}
		c.Tick()
		c.Tick()
	})
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", err)
	}
	// The same overrun delivered to a sleeping node: node 1 idles
	// through the barrier its neighbors' messages arrive at, and the
	// inbox metered for it aborts the run as it does for a ticking node.
	res, err := runIdleForms(t, graph.Path(3), func(idle func(*Ctx, int)) func(*Ctx) {
		return func(c *Ctx) {
			if c.ID() == 1 {
				idle(c, 4)
				return
			}
			c.Tick()
			c.SendID(1, Msg{})
			c.Tick()
			c.Tick()
		}
	}, WithMu(1), WithStrictMemory())
	if !errors.Is(err, ErrMemory) || res.PeakWords[1] != 2 {
		t.Fatalf("sleeper: err = %v, PeakWords[1] = %d; want ErrMemory with the 2-word inbox metered", err, res.PeakWords[1])
	}
}

func TestStrictChargeCountsHeldInbox(t *testing.T) {
	// Regression for the strict-μ inbox accounting bug: node 1 ticks
	// while under μ=4, is handed an inbox of 2 words it still holds, and
	// then Charges 3 words. Deliver-style accounting says the node now
	// holds 3 live + 2 inbox = 5 > μ, so strict mode must abort — the old
	// check compared only the 3 live words against μ and let it pass.
	e := New(graph.Path(3), WithMu(4), WithStrictMemory())
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			in := c.Tick() // receives one message from each neighbor
			c.Charge(3)
			_ = in
			c.Tick()
			return
		}
		c.SendID(1, Msg{})
		c.Tick()
		c.Tick()
	})
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory (live words + held inbox exceed μ)", err)
	}
	// The Result must agree with the abort: the peak reflects the 3 live
	// + 2 held inbox words the node was aborted on.
	if res.PeakWords[1] != 5 {
		t.Fatalf("PeakWords[1] = %d, want 5 (3 live + 2 held inbox)", res.PeakWords[1])
	}
}

func TestStrictChargeAloneStillUnderMu(t *testing.T) {
	// Control for the inbox-accounting fix: the same Charge with an empty
	// inbox stays under μ and must not abort.
	e := New(graph.Path(3), WithMu(4), WithStrictMemory())
	res, err := e.Run(func(c *Ctx) {
		c.Tick() // nobody sends: inbox empty
		if c.ID() == 1 {
			c.Charge(3)
		}
		c.Tick()
	})
	if err != nil {
		t.Fatalf("err = %v, want clean run (3 live words ≤ μ=4)", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

func TestStrictMemoryAbortsAcrossShards(t *testing.T) {
	// Strict abort driven by a node in a non-zero delivery shard
	// (id > ShardSpan) exercises the separate account/resume phases of
	// the sharded strict path.
	n := ShardSpan + 88
	e := New(graph.Path(n), WithMu(1), WithStrictMemory())
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == ShardSpan+42 {
			c.Tick() // receives 2 messages > μ=1
			c.Tick()
			return
		}
		for _, u := range c.Neighbors() {
			if u == ShardSpan+42 {
				c.SendID(u, Msg{})
			}
		}
		c.Tick()
		c.Tick()
	})
	if !errors.Is(err, ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", err)
	}
	// The same overrun landing on a sleeper in shard 1, while every
	// node of shard 0 sleeps too, across delivery worker counts.
	for _, w := range []int{1, 4} {
		res, err := runIdleForms(t, graph.Path(n), func(idle func(*Ctx, int)) func(*Ctx) {
			return func(c *Ctx) {
				if c.ID() == ShardSpan+42 || c.ID() < ShardSpan {
					idle(c, 3)
					return
				}
				if c.ID() == ShardSpan+43 {
					c.SendID(ShardSpan+42, Msg{})
					c.SendID(ShardSpan+42, Msg{})
				}
				c.Tick()
				c.Tick()
			}
		}, WithMu(1), WithStrictMemory(), WithEdgeCap(2), WithSimWorkers(w))
		if !errors.Is(err, ErrMemory) || res.Rounds != 1 {
			t.Fatalf("workers %d sleeper: err = %v, Rounds = %d; want ErrMemory at the first barrier", w, err, res.Rounds)
		}
	}
}

func TestChargeOnlyViolationCounted(t *testing.T) {
	// A node over μ purely via Charge — receiving no messages at all —
	// must still be recorded, and OverRounds must count every quiet round
	// it stays over, per the documented "every round over μ" semantics.
	e := New(graph.Path(3), WithMu(2))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			c.Charge(5)
			c.Idle(4)
			c.Release(5)
			return
		}
		c.Idle(4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one", res.Violations)
	}
	v := res.Violations[0]
	if v.Node != 1 || v.Round != 0 || v.Words != 5 {
		t.Fatalf("first overrun = %+v, want node 1, round 0, 5 words", v)
	}
	if v.OverRounds != 4 {
		t.Fatalf("OverRounds = %d, want 4 (one per quiet round over μ)", v.OverRounds)
	}
}

func TestChargeRejectsNegativeWords(t *testing.T) {
	// Regression: Charge(-n) used to silently drive the live-word meter
	// negative, bypassing Release's underflow panic and corrupting peak
	// and strict-μ accounting. It must panic (surfacing as a node error)
	// before touching the meter.
	e := New(graph.Path(2))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.Charge(5)
			c.Charge(-3)
		}
		c.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "negative words") {
		t.Fatalf("err = %v, want a negative-words panic from Charge", err)
	}
	// The rejected charge must not have shrunk the meter: the node died
	// at 5 live words.
	if res.PeakWords[0] != 5 {
		t.Fatalf("PeakWords[0] = %d, want 5 (negative charge rejected before mutating)", res.PeakWords[0])
	}
}

func TestReleaseRejectsNegativeWords(t *testing.T) {
	// Symmetric guard: Release(-n) would grow live words without the
	// strict-μ check Charge performs.
	e := New(graph.Path(2))
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.Charge(2)
			c.Release(-1)
		}
		c.Tick()
	})
	if err == nil || !strings.Contains(err.Error(), "negative words") {
		t.Fatalf("err = %v, want a negative-words panic from Release", err)
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	e := New(graph.Path(2), WithMaxRounds(10))
	_, err := e.Run(func(c *Ctx) {
		for {
			c.Tick()
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	// The limit landing mid-sleep: node 0 idles across it while node 1
	// keeps ticking. The abort wakes the sleeper at the same barrier,
	// with the same tick count, as the k-Tick loop.
	res, err := runIdleForms(t, graph.Path(2), func(idle func(*Ctx, int)) func(*Ctx) {
		return func(c *Ctx) {
			if c.ID() == 0 {
				c.Tick()
				idle(c, 25)
				return
			}
			for {
				c.Tick()
			}
		}
	}, WithMaxRounds(10))
	if !errors.Is(err, ErrMaxRounds) || res.Rounds != 11 {
		t.Fatalf("mid-sleep: err = %v, Rounds = %d; want ErrMaxRounds after 11 rounds", err, res.Rounds)
	}
}

// TestIdleNonPositiveIsNoOp pins Idle(0) and Idle(-1) as no-ops: no
// round passes, Round() does not move, and a send staged before them
// still leaves at the following Tick.
func TestIdleNonPositiveIsNoOp(t *testing.T) {
	for _, k := range []int{0, -1} {
		res, err := runIdleForms(t, graph.Path(2), func(idle func(*Ctx, int)) func(*Ctx) {
			return func(c *Ctx) {
				c.SendID(1-c.ID(), Msg{Kind: 1, A: int64(c.ID())})
				idle(c, k)
				c.Emit(int64(c.Round()))
				c.Emit(int64(len(c.Tick())))
				c.Emit(int64(c.Round()))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for v, out := range res.Outputs {
			if fmt.Sprint(out) != "[0 1 1]" {
				t.Fatalf("Idle(%d): node %d emitted %v, want [0 1 1] (Round, inbox size, Round)", k, v, out)
			}
		}
		if res.Rounds != 1 || res.Messages != 2 {
			t.Fatalf("Idle(%d): Rounds %d, Messages %d; want 1 and 2", k, res.Rounds, res.Messages)
		}
	}
}

// TestIdleSendsLeaveInFirstRound pins the Idle contract the streamsim
// and mergesim countdowns rely on: sends staged right before Idle(k) go
// out in its first round, messages arriving while the node idles are
// dropped from its view, and Round() advances by exactly k.
func TestIdleSendsLeaveInFirstRound(t *testing.T) {
	res, err := runIdleForms(t, graph.Path(3), func(idle func(*Ctx, int)) func(*Ctx) {
		return func(c *Ctx) {
			switch c.ID() {
			case 0:
				c.SendID(1, Msg{Kind: 1})
				idle(c, 3)
				c.Emit(int64(c.Round()))
				c.Emit(int64(len(c.Tick())))
			case 1:
				c.Emit(int64(len(c.Tick()))) // node 0's pre-Idle send
				c.SendID(0, Msg{Kind: 2})    // arrives while node 0 idles
				c.Tick()
				c.Tick()
				c.SendID(0, Msg{Kind: 3}) // arrives once node 0 is awake
				c.Tick()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprint(res.Outputs[0]), fmt.Sprint(res.Outputs[1]); a != "[3 1]" || b != "[1]" {
		t.Fatalf("outputs node0 %s node1 %s; want [3 1] and [1]", a, b)
	}
	if res.Rounds != 4 || res.Messages != 3 {
		t.Fatalf("Rounds %d, Messages %d; want 4 and 3", res.Rounds, res.Messages)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]int64, int) {
		e := New(NewComplete(6), WithSeed(99))
		res, err := e.Run(func(c *Ctx) {
			x := c.Rand().Int63n(1000)
			c.Broadcast(Msg{A: x})
			in := c.Tick()
			s := int64(0)
			for _, m := range in {
				s += m.Msg.A
			}
			c.Emit(s)
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 6)
		for i := range out {
			out[i] = res.Outputs[i][0].(int64)
		}
		return out, res.Rounds
	}
	a, ra := run()
	b, rb := run()
	if ra != rb {
		t.Fatalf("rounds differ: %d vs %d", ra, rb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestInboxOrders(t *testing.T) {
	for _, order := range []InboxOrder{OrderBySender, OrderRandom, OrderReversed} {
		e := New(NewComplete(5), WithInboxOrder(order), WithSeed(7))
		res, err := e.Run(func(c *Ctx) {
			c.Broadcast(Msg{A: int64(c.ID())})
			in := c.Tick()
			ids := make([]int64, len(in))
			for i, m := range in {
				ids[i] = m.Msg.A
			}
			c.Emit(ids)
		})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Outputs[0][0].([]int64)
		if len(got) != 4 {
			t.Fatalf("order %v: got %d messages", order, len(got))
		}
		switch order {
		case OrderBySender:
			for i := 1; i < len(got); i++ {
				if got[i] < got[i-1] {
					t.Fatalf("OrderBySender not sorted: %v", got)
				}
			}
		case OrderReversed:
			for i := 1; i < len(got); i++ {
				if got[i] > got[i-1] {
					t.Fatalf("OrderReversed not reversed: %v", got)
				}
			}
		}
	}
}

func TestDroppedMessagesToFinishedNodes(t *testing.T) {
	e := New(graph.Path(3))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			return // finishes immediately
		}
		if c.ID() == 1 {
			c.SendID(0, Msg{})
			c.SendID(2, Msg{})
		}
		c.Tick()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", res.Dropped)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	e := New(graph.Path(3))
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 2 {
			panic("boom")
		}
		c.Tick()
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestEmitCostsNoMemory(t *testing.T) {
	e := New(graph.Path(2), WithMu(1))
	res, err := e.Run(func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Emit(i)
		}
		c.Tick()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("emitting output must not consume memory: %v", res.Violations)
	}
	if res.TotalOutputs() != 200 {
		t.Fatalf("outputs = %d, want 200", res.TotalOutputs())
	}
}

func TestCompleteTopology(t *testing.T) {
	c := NewComplete(5)
	if c.N() != 5 {
		t.Fatal("N")
	}
	for v := 0; v < 5; v++ {
		nb := c.Neighbors(v)
		if len(nb) != 4 {
			t.Fatalf("degree %d", len(nb))
		}
		for _, u := range nb {
			if u == v {
				t.Fatal("self neighbor")
			}
		}
		// The arithmetic fast paths must agree with the materialized list.
		if c.Degree(v) != len(nb) {
			t.Fatalf("Degree(%d) = %d, want %d", v, c.Degree(v), len(nb))
		}
		for p, u := range nb {
			if got := c.NeighborAt(v, p); got != u {
				t.Fatalf("NeighborAt(%d,%d) = %d, want %d", v, p, got, u)
			}
			if got := c.PortOf(v, u); got != p {
				t.Fatalf("PortOf(%d,%d) = %d, want %d", v, u, got, p)
			}
		}
		if c.PortOf(v, v) != -1 || c.PortOf(v, -1) != -1 || c.PortOf(v, 5) != -1 {
			t.Fatal("PortOf must return -1 for self and out-of-range ids")
		}
	}
}

func TestCompleteTopologyImplicit(t *testing.T) {
	// The complete topology is implicit: constructing it at engine scale
	// must not allocate O(n²) adjacency, and all port arithmetic must
	// answer without materializing anything. (An explicit build at this n
	// would need ~8 TB.)
	const n = 1 << 20
	c := NewComplete(n)
	if c.Degree(12345) != n-1 {
		t.Fatalf("degree = %d, want %d", c.Degree(12345), n-1)
	}
	if got := c.NeighborAt(100, 99); got != 99 {
		t.Fatalf("NeighborAt(100,99) = %d, want 99", got)
	}
	if got := c.NeighborAt(100, 100); got != 101 {
		t.Fatalf("NeighborAt(100,100) = %d, want 101", got)
	}
	if got := c.PortOf(100, n-1); got != n-2 {
		t.Fatalf("PortOf(100,%d) = %d, want %d", n-1, got, n-2)
	}
	// Neighbors materializes lazily, one node at a time, and caches.
	nb := c.Neighbors(3)
	if len(nb) != n-1 || nb[0] != 0 || nb[3] != 4 || nb[n-2] != n-1 {
		t.Fatalf("Neighbors(3) malformed: len=%d", len(nb))
	}
	if again := c.Neighbors(3); &again[0] != &nb[0] {
		t.Fatal("Neighbors must cache and return a stable slice")
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	e := New(graph.Path(3))
	_, err := e.Run(func(c *Ctx) {
		if c.ID() == 0 {
			c.SendID(2, Msg{}) // 2 is not adjacent to 0 on a path
		}
		c.Tick()
	})
	if err == nil {
		t.Fatal("expected error for non-neighbor send")
	}
}

func TestPortAddressing(t *testing.T) {
	e := New(graph.Path(3))
	res, err := e.Run(func(c *Ctx) {
		if c.ID() == 1 {
			if c.PortOf(0) < 0 || c.PortOf(2) < 0 || c.PortOf(1) != -1 {
				c.Emit("bad ports")
			}
			c.Send(c.PortOf(2), Msg{A: 5})
		}
		in := c.Tick()
		if c.ID() == 2 && len(in) == 1 && in[0].Msg.A == 5 {
			c.Emit("ok")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs[1]) != 0 {
		t.Fatalf("port sanity failed: %v", res.Outputs[1])
	}
	if len(res.Outputs[2]) != 1 {
		t.Fatal("port-addressed message lost")
	}
}
