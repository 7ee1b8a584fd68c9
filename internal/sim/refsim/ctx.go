package refsim

import (
	"fmt"
	"math/rand"

	"mucongest/internal/sim"
)

// Ctx is the reference engine's NodeCtx implementation. It mirrors
// sim.Ctx's observable behavior — same RNG stream derivation, same
// bandwidth metering, same memory accounting, and the same panic
// messages (node-side panics surface in run errors, which the
// differential harness compares byte for byte) — with none of its
// performance machinery: the bandwidth meter is a plain map cleared
// every round, the inbox is a fresh allocation every round, neighbor
// views are materialized eagerly.
type Ctx struct {
	e   *Engine
	id  int
	nbr []int
	prt map[int]int
	rng *rand.Rand

	outbox []staged
	sent   map[int]int // port -> messages sent this round
}

func newCtx(e *Engine, id int) *Ctx {
	nbr := e.topo.Neighbors(id)
	prt := make(map[int]int, len(nbr))
	for p, u := range nbr {
		prt[u] = p
	}
	return &Ctx{e: e, id: id, nbr: nbr, prt: prt, sent: map[int]int{}}
}

// ID returns this node's id in 0..N-1.
func (c *Ctx) ID() int { return c.id }

// N returns the number of nodes in the network.
func (c *Ctx) N() int { return c.e.n }

// Mu returns the memory bound μ in words (≤ 0 when unbounded).
func (c *Ctx) Mu() int64 { return c.e.cfg.Mu }

// Degree returns the number of neighbors.
func (c *Ctx) Degree() int { return len(c.nbr) }

// Neighbors returns this node's neighbor ids. The slice must not be
// modified.
func (c *Ctx) Neighbors() []int { return c.nbr }

// Neighbor returns the id of the neighbor on the given port.
func (c *Ctx) Neighbor(port int) int {
	c.checkPort(port)
	return c.nbr[port]
}

// checkPort panics unless 0 ≤ port < Degree(), with sim.Ctx's message.
func (c *Ctx) checkPort(port int) {
	if port < 0 || port >= len(c.nbr) {
		panic(fmt.Sprintf("sim: node %d has no port %d (degree %d)", c.id, port, len(c.nbr)))
	}
}

// PortOf returns the port of neighbor id, or -1 if id is not adjacent.
func (c *Ctx) PortOf(id int) int {
	if p, ok := c.prt[id]; ok {
		return p
	}
	return -1
}

// Rand returns this node's deterministic private RNG: the same stream
// sim.Ctx derives, keyed by the engine seed and the node id.
func (c *Ctx) Rand() *rand.Rand {
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.e.cfg.Seed*1_000_003 + int64(c.id)))
	}
	return c.rng
}

// Round returns the number of Tick calls this node has performed.
// A fault-layer restart resets the count, like sim.Ctx.Round.
func (c *Ctx) Round() int { return c.e.nodes[c.id].ticks }

// Restarts returns how many times this node has been crashed and
// restarted by the fault layer, like sim.Ctx.Restarts.
func (c *Ctx) Restarts() int { return c.e.nodes[c.id].restarts }

func (c *Ctx) meter(port int) {
	// A negative configured cap stays fail-fast on the first Send,
	// matching sim's clamped meter.
	limit := c.e.cfg.EdgeCap
	if limit < 0 {
		limit = 0
	}
	if c.sent[port] >= limit {
		panic(fmt.Sprintf("sim: node %d exceeded edge capacity %d to port %d in one round",
			c.id, c.e.cfg.EdgeCap, port))
	}
	c.sent[port]++
}

// Send queues one message to the neighbor on port for delivery at the
// start of the next round.
func (c *Ctx) Send(port int, m sim.Msg) {
	c.checkPort(port)
	c.meter(port)
	c.outbox = append(c.outbox, staged{to: c.nbr[port], msg: m})
}

// SendID queues one message to the adjacent node with the given id.
func (c *Ctx) SendID(id int, m sim.Msg) {
	p := c.PortOf(id)
	if p < 0 {
		panic(fmt.Sprintf("sim: node %d attempted to send to non-neighbor %d", c.id, id))
	}
	c.Send(p, m)
}

// Broadcast queues one copy of m to every neighbor, in port order.
func (c *Ctx) Broadcast(m sim.Msg) {
	for p := range c.nbr {
		c.Send(p, m)
	}
}

// Tick ends the node's round: the outbox is handed to the engine, the
// node blocks until every node reaches the barrier, and the round's
// deliveries are returned. Unlike the production engine the returned
// slice is freshly allocated — refsim has no buffer-reuse aliasing
// contract — but like it, an empty delivery is returned as nil.
func (c *Ctx) Tick() []sim.Incoming {
	nd := &c.e.nodes[c.id]
	nd.ticks++
	nd.staged = c.outbox
	c.outbox = nil
	clear(c.sent)
	c.e.step <- struct{}{}
	<-nd.resume
	// Crash precedes abort, mirroring sim.Ctx.Tick: the fault point
	// only crashes nodes on non-aborted rounds, and a crashing node
	// must unwind through the crash handshake, not the abort path.
	if nd.crashing {
		panic(errCrash)
	}
	if c.e.aborted {
		panic(errAbort)
	}
	in := nd.inbox
	nd.inbox = nil
	if len(in) == 0 {
		return nil
	}
	return in
}

// Idle ends k consecutive rounds and discards everything received in
// them: sends staged before Idle go out in its first round, each
// round's inbox is metered like any other and then dropped, and k ≤ 0
// is a no-op. refsim keeps the naive loop of k Ticks — the oracle the
// production engine's sleep is certified against.
func (c *Ctx) Idle(k int) {
	for i := 0; i < k; i++ {
		c.Tick()
	}
}

// Emit outputs v. Emitted outputs leave the node and consume no memory.
func (c *Ctx) Emit(v any) {
	nd := &c.e.nodes[c.id]
	nd.outputs = append(nd.outputs, v)
}

// Charge records `words` additional live words, updates the peak
// (including the held inbox) and, in strict mode, aborts the moment the
// node exceeds μ — the exact accounting of sim.Ctx.Charge.
func (c *Ctx) Charge(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("sim: node %d Charge(%d): negative words (use Release to return memory)",
			c.id, words))
	}
	nd := &c.e.nodes[c.id]
	nd.live += words
	if total := nd.live + nd.inboxWords; total > nd.peak {
		nd.peak = total
	}
	if c.e.cfg.Strict && c.e.cfg.Mu > 0 && nd.live+nd.inboxWords > c.e.cfg.Mu {
		panic(fmt.Errorf("%w: node %d holds %d live + %d inbox words > μ=%d",
			sim.ErrMemory, c.id, nd.live, nd.inboxWords, c.e.cfg.Mu))
	}
}

// Release returns `words` words to the memory meter.
func (c *Ctx) Release(words int64) {
	if words < 0 {
		panic(fmt.Sprintf("sim: node %d Release(%d): negative words (use Charge to add memory)",
			c.id, words))
	}
	nd := &c.e.nodes[c.id]
	nd.live -= words
	if nd.live < 0 {
		panic(fmt.Sprintf("sim: node %d released more memory than charged", c.id))
	}
}

// Live returns the words currently charged by the algorithm (excluding
// the in-flight inbox).
func (c *Ctx) Live() int64 { return c.e.nodes[c.id].live }
