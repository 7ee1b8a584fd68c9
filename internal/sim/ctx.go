package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Ctx is a node's handle to the simulation: its identity, topology view,
// messaging, memory meter, output channel and RNG. A Ctx is owned by the
// node and must not be shared.
//
// Setup is O(1) per node even on implicit topologies like Complete:
// ports resolve through the topology's NeighborAt and PortOf, and the
// private RNG is created on first Rand.
type Ctx struct {
	eng *Engine
	rt  *nodeRT // this node's runtime slot, cached off the hot paths
	id  int
	deg int
	rng *rand.Rand // lazily created on first Rand

	outbox []routed
	spare  []routed // retired outbox buffer, recycled by takeOutbox

	// Per-edge bandwidth meter. sent[p] packs the round stamp (high 32
	// bits) over the count of messages sent on port p (low 32 bits); an
	// entry is valid only while its stamp equals sentRound, so
	// takeOutbox's reset is an O(1) stamp bump instead of a per-round
	// clear. The array is sized lazily by the highest port actually
	// used, so a node that sends on few ports of a huge degree stays
	// cheap. sentRound wraps at 2³², far beyond any bounded run
	// (WithMaxRounds defaults to 2·10⁶).
	sent      []uint64
	sentRound uint32
	sentCap   uint32 // edgeCap clamped to uint32, cached off the Engine
}

// newCtx resets the node's slot of the engine's flat Ctx slice — one
// allocation per run, not per node — to a fresh execution's state and
// returns it: no RNG drawn from, nothing staged, a zeroed bandwidth
// meter whose stamps restart with sentRound.
func newCtx(e *Engine, id int) *Ctx {
	c := &e.ctxs[id]
	c.eng, c.rt, c.id, c.deg, c.rng = e, &e.nodes[id], id, e.topo.Degree(id), nil
	c.outbox = c.outbox[:0]
	clear(c.sent)
	c.sentRound = 0
	switch {
	case e.edgeCap > math.MaxInt32:
		c.sentCap = math.MaxInt32
	case e.edgeCap < 0:
		// A negative cap must stay fail-fast (the first Send panics),
		// not wrap to an effectively unlimited uint32.
		c.sentCap = 0
	default:
		c.sentCap = uint32(e.edgeCap)
	}
	return c
}

// ID returns this node's id in 0..N-1.
func (c *Ctx) ID() int { return c.id }

// N returns the number of nodes in the network.
func (c *Ctx) N() int { return c.eng.n }

// Mu returns the memory bound μ in words (≤ 0 when unbounded).
func (c *Ctx) Mu() int64 { return c.eng.mu }

// Degree returns the number of neighbors.
func (c *Ctx) Degree() int { return c.deg }

// Neighbors returns this node's neighbor ids. The slice must not be
// modified.
func (c *Ctx) Neighbors() []int { return c.eng.topo.Neighbors(c.id) }

// Neighbor returns the id of the neighbor on the given port. It panics
// unless 0 ≤ port < Degree().
func (c *Ctx) Neighbor(port int) int {
	c.checkPort(port)
	return c.eng.topo.NeighborAt(c.id, port)
}

// PortOf returns the port of neighbor id, or -1 if id is not adjacent.
func (c *Ctx) PortOf(id int) int { return c.eng.topo.PortOf(c.id, id) }

// checkPort panics unless 0 ≤ port < Degree(). Send runs it before
// metering, so an out-of-range port fails before it can size the
// bandwidth meter.
//
//muvet:hotpath
func (c *Ctx) checkPort(port int) {
	if port < 0 || port >= c.deg {
		panic(fmt.Sprintf("sim: node %d has no port %d (degree %d)", c.id, port, c.deg))
	}
}

// Rand returns this node's deterministic private RNG. The stream depends
// only on the engine seed and the node id.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.eng.seed*1_000_003 + int64(c.id)))
	}
	return c.rng
}

// Round returns the number of Tick calls this node has performed.
// A fault-layer restart resets the count: the restarted program is a
// fresh execution and sees Round() grow from 0 again.
func (c *Ctx) Round() int { return c.rt.ticks }

// Restarts returns how many times this node has been crashed and
// restarted by the fault layer (see WithFaults). Always 0 in
// fault-free runs; a freshly restarted program observes the
// incremented count from its first instruction.
func (c *Ctx) Restarts() int { return c.rt.restarts }

// meter charges one message against the per-edge cap of port (a valid
// port: see checkPort), growing the stamped count array to cover it
// first.
//
//muvet:hotpath
func (c *Ctx) meter(port int) {
	if port >= len(c.sent) {
		c.growSent(port + 1)
	}
	v := c.sent[port]
	if uint32(v>>32) != c.sentRound {
		v = uint64(c.sentRound) << 32 // stale stamp: count restarts at 0
	}
	if uint32(v) >= c.sentCap {
		panic(fmt.Sprintf("sim: node %d exceeded edge capacity %d to port %d in one round",
			c.id, c.eng.edgeCap, port))
	}
	c.sent[port] = v + 1
}

// growSent extends the bandwidth-meter array to at least n ≤ degree
// entries (doubling, capped at the degree) so repeated growth on
// ascending ports stays amortized O(1).
func (c *Ctx) growSent(n int) {
	size := 2 * len(c.sent)
	if size < n {
		size = n
	}
	if size > c.deg {
		size = c.deg
	}
	sent := make([]uint64, size)
	copy(sent, c.sent)
	c.sent = sent
}

// Send queues one message to the neighbor on port for delivery at the
// start of the next round. It panics unless 0 ≤ port < Degree(), and if
// the per-edge bandwidth cap is exceeded within the current round.
//
//muvet:hotpath
func (c *Ctx) Send(port int, m Msg) {
	c.checkPort(port)
	c.meter(port)
	c.outbox = append(c.outbox, routed{from: c.id, to: c.eng.topo.NeighborAt(c.id, port), msg: m})
}

// SendID queues one message to the adjacent node with the given id.
func (c *Ctx) SendID(id int, m Msg) {
	p := c.PortOf(id)
	if p < 0 {
		panic(fmt.Sprintf("sim: node %d attempted to send to non-neighbor %d", c.id, id))
	}
	c.Send(p, m)
}

// Broadcast queues one copy of m to every neighbor. It meters and
// resolves all ports in single passes instead of re-deriving each
// neighbor through the generic Send path.
//
//muvet:hotpath
func (c *Ctx) Broadcast(m Msg) {
	deg := c.deg
	if deg == 0 {
		return
	}
	if len(c.sent) < deg {
		c.growSent(deg)
	}
	stamp := uint64(c.sentRound) << 32
	for p := 0; p < deg; p++ {
		v := c.sent[p]
		if uint32(v>>32) != c.sentRound {
			v = stamp
		}
		if uint32(v) >= c.sentCap {
			panic(fmt.Sprintf("sim: node %d exceeded edge capacity %d to port %d in one round",
				c.id, c.eng.edgeCap, p))
		}
		c.sent[p] = v + 1
	}
	out := c.outbox
	if need := len(out) + deg; cap(out) < need {
		// One growth instead of doubling through the append loop; at
		// least 2x so repeated Broadcasts in one round stay amortized.
		if dbl := 2 * cap(out); need < dbl {
			need = dbl
		}
		grown := make([]routed, len(out), need)
		copy(grown, out)
		out = grown
	}
	topo, id := c.eng.topo, c.id
	for p := 0; p < deg; p++ {
		out = append(out, routed{from: id, to: topo.NeighborAt(id, p), msg: m})
	}
	c.outbox = out
}

// Tick ends the node's current round: queued messages are handed to the
// engine, the node blocks until every node reaches the barrier, and the
// messages that arrived are returned. The returned inbox counts toward
// the node's memory until it drops the slice.
//
// The returned slice aliases an engine-owned buffer that is reused for
// the node's next delivery: it is valid only until this node's next
// Tick call. Copy any messages that must outlive the round. Build with
// `-tags simdebug` to poison retired buffers and surface violations of
// this contract as sentinel messages (From/Kind = -1).
//
//muvet:hotpath
func (c *Ctx) Tick() []Incoming { return c.park(0) }

// Idle ends k consecutive rounds and discards everything received in
// them; it is observably k calls of Tick with no code in between. Sends
// staged before Idle go out in its first round, exactly as Tick would
// hand them over. Messages addressed to the node while it idles are
// still delivered: each round's inbox is metered like any other
// (PeakWords, μ violations, strict-mode aborts) and then discarded.
// Round() advances by k. k ≤ 0 is a no-op.
//
// The engine runs Idle as a sleep: the node parks at its first barrier
// and is not resumed for the next k-1, which the engine accounts on
// its behalf. Only an abort or a fault-layer crash ends the sleep early,
// exactly where the k-Tick loop would have unwound.
func (c *Ctx) Idle(k int) {
	if k > 0 {
		c.park(k - 1)
	}
}

// park is the barrier handoff behind Tick and Idle: it stages the
// outbox, records how many further barriers the engine should sleep the
// node through, arrives, and blocks until the engine resumes it.
//
//muvet:hotpath
func (c *Ctx) park(sleep int) []Incoming {
	rt := c.rt
	if rt.step != nil {
		// A stepped node blocking here would deadlock the delivery worker
		// driving it; fail as a node error instead.
		panic(fmt.Sprintf("sim: node %d runs a step program; the engine owns its round boundary (return true from Step instead of calling Tick)", c.id))
	}
	rt.ticks++
	rt.sleep = sleep
	if out := c.takeOutbox(); len(out) > 0 {
		c.eng.senderOut[c.id] = out
	}
	c.eng.arrive()
	in := <-rt.resume
	// The crash check precedes the abort check: the fault point only
	// crashes nodes on non-aborted rounds, and a crashing node must
	// unwind through the crashAck handshake, not the abort path. The
	// resume receive orders the engine's serial crashing write before
	// this read.
	if rt.crashing {
		panic(errCrash)
	}
	if c.eng.aborted {
		panic(errAbort)
	}
	return in
}

// Emit outputs v. Per the μ-CONGEST model, emitted outputs leave the
// node immediately and consume no memory.
//
//muvet:hotpath
func (c *Ctx) Emit(v any) {
	c.rt.outputs = append(c.rt.outputs, v)
}

// Charge records that the algorithm now holds `words` additional words
// of memory. Peak usage and μ violations are tracked by the engine.
// Negative words are rejected with a panic: silently shrinking the
// meter would bypass Release's underflow check and could drive the
// live count negative. Use Release to return memory.
//
// The words delivered to the node at the last barrier stay charged
// alongside the algorithm's live words — the engine cannot observe the
// node dropping the inbox slice before its next Tick — so both the peak
// update and the strict-mode abort check match the engine's barrier
// accounting: a node that charges over μ while still holding its inbox
// aborts (strict) and has the overrun reflected in PeakWords.
//
//muvet:hotpath
func (c *Ctx) Charge(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("sim: node %d Charge(%d): negative words (use Release to return memory)",
			c.id, words))
	}
	rt := c.rt
	rt.live += words
	if total := rt.live + rt.inboxWords; total > rt.peak {
		rt.peak = total
	}
	if c.eng.strict && c.eng.mu > 0 && rt.live+rt.inboxWords > c.eng.mu {
		panic(fmt.Errorf("%w: node %d holds %d live + %d inbox words > μ=%d",
			ErrMemory, c.id, rt.live, rt.inboxWords, c.eng.mu))
	}
}

// Release returns `words` words to the memory meter. Negative words are
// rejected with a panic, symmetrically with Charge.
//
//muvet:hotpath
func (c *Ctx) Release(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("sim: node %d Release(%d): negative words (use Charge to add memory)",
			c.id, words))
	}
	rt := c.rt
	rt.live -= words
	if rt.live < 0 {
		panic(fmt.Sprintf("sim: node %d released more memory than charged", c.id))
	}
}

// Live returns the words currently charged by the algorithm (excluding
// the in-flight inbox).
func (c *Ctx) Live() int64 { return c.rt.live }

// takeOutbox hands the queued messages to the engine and recycles the
// buffer retired one barrier ago: the engine finished delivering from it
// before this node was last resumed, so it is free for reuse. The two
// buffers alternate, making steady-state sends allocation-free. Bumping
// the round stamp invalidates every per-port send count in O(1).
//
//muvet:hotpath
func (c *Ctx) takeOutbox() []routed {
	out := c.outbox
	c.outbox = c.spare[:0]
	c.spare = out
	c.sentRound++
	return out
}
