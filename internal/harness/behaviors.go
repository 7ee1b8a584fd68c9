package harness

import (
	"fmt"

	"mucongest/internal/sim"
	"mucongest/internal/sim/refsim"
)

// behaviorNames lists the node-program library in generator draw order.
// Every entry keys Behaviors.
var behaviorNames = []string{
	"gossip", "broadcast", "chargeonly", "earlyfinish", "nodeerror", "strictpressure", "restartaware",
	"idle",
}

// Behaviors maps a behavior name to its program constructor. Programs
// are written against the shared refsim.NodeCtx contract so one closure
// runs unchanged on either engine, and each emits an order-sensitive
// fold of its inbox every round — the per-round digest the differential
// comparison keys on. Programs are deterministic given the scenario and
// the node's private RNG, and never exceed the scenario's edge cap.
var Behaviors = map[string]func(sc Scenario) func(refsim.NodeCtx){
	// gossip: per-node-RNG-driven sends with occasional double sends
	// when the edge budget allows, plus a mid-run early finish for a
	// subset of nodes (so drops occur).
	"gossip": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			c.Charge(int64(c.ID()%3 + 1))
			for r := 0; r < sc.Rounds; r++ {
				for _, u := range c.Neighbors() {
					if c.Rand().Intn(2) == 0 {
						c.SendID(u, sim.Msg{Kind: 1, A: int64(c.ID()), B: int64(r), C: c.Rand().Int63n(1 << 20)})
						if sc.EdgeCap >= 2 && c.Rand().Intn(4) == 0 {
							c.SendID(u, sim.Msg{Kind: 2, A: int64(c.ID()), B: int64(r), C: c.Rand().Int63n(1 << 20)})
						}
					}
				}
				emitFold(c, c.Tick())
				if c.ID()%7 == 3 && r == sc.Rounds/2 {
					return
				}
			}
		}
	},

	// broadcast: every node floods every neighbor every round — the
	// heaviest inbox pressure the cap allows — while oscillating the
	// memory meter.
	"broadcast": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			for r := 0; r < sc.Rounds; r++ {
				c.Broadcast(sim.Msg{Kind: 3, A: int64(c.ID()), B: int64(r)})
				c.Charge(int64(r%3 + 1))
				emitFold(c, c.Tick())
				c.Release(int64(r%3 + 1))
			}
		}
	},

	// chargeonly: no messages at all — μ overruns must still be
	// detected on charge-only and quiet rounds, and strict mode must
	// abort from Charge between barriers.
	"chargeonly": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			var held int64
			for r := 0; r < sc.Rounds; r++ {
				amt := int64((c.ID()+r)%5 + 1)
				c.Charge(amt)
				held += amt
				if held > 6 {
					c.Release(held - 2)
					held = 2
				}
				c.Tick()
				c.Emit(c.Live())
			}
		}
	},

	// earlyfinish: staggered termination — node v quits after
	// v mod Rounds+1 rounds — with RNG-directed single sends, so late
	// messages chase already-finished destinations and are dropped.
	"earlyfinish": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			quit := c.ID()%(sc.Rounds+1) + 1
			for r := 0; ; r++ {
				if deg := c.Degree(); deg > 0 {
					c.Send(c.Rand().Intn(deg), sim.Msg{Kind: 4, A: int64(c.ID()), B: int64(r)})
				}
				emitFold(c, c.Tick())
				if r+1 >= quit {
					return
				}
			}
		}
	},

	// nodeerror: the broadcast workload with one designated node
	// panicking mid-run; both engines must abort with the identical
	// wrapped error and identical partial results.
	"nodeerror": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			for r := 0; r < sc.Rounds; r++ {
				c.Broadcast(sim.Msg{Kind: 5, A: int64(c.ID()), B: int64(r)})
				emitFold(c, c.Tick())
				if c.ID() == sc.FailNode && r == sc.FailRound {
					panic(fmt.Sprintf("harness: node %d injected failure at round %d", c.ID(), r))
				}
			}
		}
	},

	// restartaware: every execution leads with its Restarts() count and
	// stamps it into each broadcast, so a crash/restart cycle changes
	// both the output record and the message contents — any drift in
	// restart accounting or in the state-reset semantics between the
	// engines (or between execution modes) lands in the digests.
	"restartaware": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			c.Emit(int64(c.Restarts()))
			for r := 0; r < sc.Rounds; r++ {
				c.Broadcast(sim.Msg{Kind: 7, A: int64(c.ID()), B: int64(r), C: int64(c.Restarts())})
				emitFold(c, c.Tick())
			}
		}
	},

	// strictpressure: a monotone charge ramp under broadcast load,
	// driving every bounded run over μ sooner or later — in strict mode
	// through either the Charge fast path or barrier accounting,
	// whichever the scenario's μ hits first.
	"strictpressure": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			for r := 0; r < sc.Rounds; r++ {
				c.Charge(int64(c.ID()%2 + 1))
				c.Broadcast(sim.Msg{Kind: 6, A: int64(c.ID()), B: int64(r)})
				emitFold(c, c.Tick())
			}
		}
	},

	// idle: RNG-driven rounds that either Tick or Idle(k) for k in
	// -2..3, with a send usually staged right before either — so sends
	// leave in an Idle's first round, nodes drawing different k leave
	// messages arriving at sleeping nodes (metered, then discarded), and
	// Idle(0)/Idle(-1) must be no-ops that leave the staged send for the
	// following Tick. Each Idle emits Round() on waking, pinning the
	// tick count the sleep advanced.
	"idle": func(sc Scenario) func(refsim.NodeCtx) {
		return func(c refsim.NodeCtx) {
			c.Charge(int64(c.ID()%2 + 1))
			for r := 0; r < sc.Rounds; r++ {
				if deg := c.Degree(); deg > 0 && c.Rand().Intn(3) != 0 {
					c.Send(c.Rand().Intn(deg), sim.Msg{Kind: 8, A: int64(c.ID()), B: int64(r)})
				}
				k := c.Rand().Intn(6) - 2
				c.Idle(k)
				if k > 0 {
					c.Emit(int64(c.Round()))
					continue
				}
				emitFold(c, c.Tick())
			}
		}
	},
}

// emitFold emits the order-sensitive fold of one round's inbox: any
// difference in delivery content or presentation order — across
// engines, worker counts or reruns — lands in Outputs and fails the
// digest comparison for exactly the round it happened in.
func emitFold(c refsim.NodeCtx, in []sim.Incoming) {
	var h int64
	for i, m := range in {
		h = h*1_000_003 + int64(m.From+1)*31 + int64(m.Msg.Kind) + m.Msg.A + m.Msg.B + m.Msg.C + int64(i+1)
	}
	c.Emit(h)
}
