package clique

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"mucongest/internal/sim"
)

// Packet is one routed message: a destination and an O(log n)-bit
// payload.
type Packet struct {
	Dst     int
	A, B, C int64
}

// OracleRouter realizes Lenzen's routing scheme (Lemma 2.9 of the
// paper) for the μ-Congested-Clique: a routing instance in which every
// node sends and receives at most L messages completes in
// ⌈L/(n-1)⌉ + O(1) rounds. Lenzen's theorem guarantees a conflict-free
// schedule of that length exists; rather than re-implement his
// distributed sorting protocol, the router computes the schedule
// centrally (a documented substitution from the paper’s Section 2 routing) while charging
// the exact round count of the lemma and preserving the per-node
// message loads, which is what the experiments measure.
//
// Route and RouteBatch are SPMD subroutines: every node must call the
// same one at the same logical point. Memory for the received batch is
// charged to the receiving node by the caller.
type OracleRouter struct {
	n        int
	mu       sync.Mutex
	deposits [][]Packet
	received [][]Packet
	rounds   int
	// scheduled reports that the schedule already ran for the current
	// Route or RouteBatch call: the first node past the deposit barrier
	// computes it, the rest read it. Each call's deposits reset it.
	scheduled bool

	// RouteBatch state: each node's deposited chunk, the per-node
	// per-block received buffers (reused across calls) and the chunk's
	// total round charge.
	chunks   [][][]Packet
	recvs    [][][]Packet
	sleep    int
	chunkErr error

	// Schedule scratch, reused across calls.
	in    []int
	byDst [][]tagged
}

// tagged is a deposited packet with its source node.
type tagged struct {
	src int
	p   Packet
}

// NewOracleRouter returns a router for an n-node clique.
func NewOracleRouter(n int) *OracleRouter {
	return &OracleRouter{
		n:        n,
		deposits: make([][]Packet, n),
		received: make([][]Packet, n),
		in:       make([]int, n),
		byDst:    make([][]tagged, n),
		chunks:   make([][][]Packet, n),
		recvs:    make([][][]Packet, n),
	}
}

// Route delivers every node's out packets and returns the packets
// addressed to this node, ordered by source node, then by (A, B), then
// by the source's deposit order. It charges ⌈L/(n-1)⌉ + 1 routing rounds
// for the realized load L (the larger of the maximum per-node send and
// receive counts), plus the two rounds of schedule agreement; a call
// with no packets at all costs just those 2 rounds.
//
// The returned slice is a router-owned buffer reused by the next call:
// it is valid only until this node's next Route or RouteBatch. Copy any
// packets that must outlive it.
func (r *OracleRouter) Route(c *sim.Ctx, out []Packet) []Packet {
	r.mu.Lock()
	r.deposits[c.ID()] = out
	r.scheduled = false
	r.mu.Unlock()
	c.Tick() // barrier: all deposits visible afterwards
	r.mu.Lock()
	if !r.scheduled {
		r.schedule()
		r.scheduled = true
	}
	rounds := r.rounds
	r.mu.Unlock()
	// The schedule-agreement barrier and the routing rounds are one
	// sleep: no node reads the schedule's output before every node has
	// passed the first of them.
	c.Idle(1 + rounds)
	return r.received[c.ID()]
}

// RouteBatch routes a chunk of consecutive, independent routing
// instances in one call: outs[b] is this node's out packets for block b,
// and the result's b-th entry holds the packets addressed to this node in
// block b, in Route's order. The round charge is that of one Route call
// per block, Σ_b (2 + ⌈L_b/(n-1)⌉ + 1), with L_b = 0 blocks costing 2.
//
// Batching is sound only for an oblivious schedule: what a node deposits
// for block b must not depend on what it receives in an earlier block of
// the same chunk. Each node deposits its whole chunk and passes one
// barrier; the first node past it schedules every block in order, and
// every node then sleeps through the rest of the chunk's rounds. The
// caller handles the received blocks after waking, so memory it charges
// per block lands in the chunk's last round rather than in each block's.
//
// Contract: an SPMD call, with the same len(outs) on every node (a
// mismatch panics). The outs slices must stay unmodified until the call
// returns. The result and its blocks are router-owned buffers, valid
// only until this node's next Route or RouteBatch call. An empty chunk
// returns nil without a barrier.
func (r *OracleRouter) RouteBatch(c *sim.Ctx, outs [][]Packet) [][]Packet {
	if len(outs) == 0 {
		return nil
	}
	r.mu.Lock()
	r.chunks[c.ID()] = outs
	r.scheduled = false
	r.mu.Unlock()
	c.Tick() // barrier: all deposits visible afterwards
	r.mu.Lock()
	if !r.scheduled {
		r.chunkErr = r.scheduleChunk()
		r.scheduled = true
	}
	sleep, err := r.sleep, r.chunkErr
	r.mu.Unlock()
	if err != nil {
		panic(err)
	}
	c.Idle(sleep)
	return r.recvs[c.ID()]
}

// scheduleChunk runs schedule once per block of the deposited chunks, in
// block order, moving each receiver's block into its per-block buffer,
// and sets sleep to the chunk's rounds after the deposit barrier. It
// fails, scheduling nothing, if the nodes deposited chunks of different
// lengths.
func (r *OracleRouter) scheduleChunk() error {
	blocks := len(r.chunks[0])
	for src, ch := range r.chunks {
		if len(ch) != blocks {
			return fmt.Errorf("clique: RouteBatch: node %d deposited %d blocks, node 0 %d", src, len(ch), blocks)
		}
	}
	for v := range r.recvs {
		r.recvs[v] = slices.Grow(r.recvs[v][:0], blocks)[:blocks]
	}
	total := 0
	for b := 0; b < blocks; b++ {
		for src, ch := range r.chunks {
			r.deposits[src] = ch[b]
		}
		r.schedule()
		total += 2 + r.rounds
		// Swap rather than copy: both buffers are router-owned, and the
		// next block's schedule refills the one swapped out.
		for v := range r.recvs {
			r.received[v], r.recvs[v][b] = r.recvs[v][b], r.received[v]
		}
	}
	clear(r.chunks)
	// The deposit barrier is the chunk's first round.
	r.sleep = total - 1
	return nil
}

// schedule computes the Lenzen round count from the realized loads and
// groups packets by destination in deterministic (src, payload) order.
func (r *OracleRouter) schedule() {
	in := r.in
	clear(in)
	maxOut := 0
	for _, d := range r.deposits {
		if len(d) > maxOut {
			maxOut = len(d)
		}
		for _, p := range d {
			in[p.Dst]++
		}
	}
	maxIn := 0
	for _, k := range in {
		if k > maxIn {
			maxIn = k
		}
	}
	byDst := r.byDst
	for v := range byDst {
		byDst[v] = byDst[v][:0]
	}
	for src, d := range r.deposits {
		for _, p := range d {
			byDst[p.Dst] = append(byDst[p.Dst], tagged{src, p})
		}
		r.deposits[src] = nil
	}
	for v, b := range byDst {
		// Stable: packets equal in (src, A, B) keep their deposit order.
		slices.SortStableFunc(b, func(x, y tagged) int {
			if c := cmp.Compare(x.src, y.src); c != 0 {
				return c
			}
			if c := cmp.Compare(x.p.A, y.p.A); c != 0 {
				return c
			}
			return cmp.Compare(x.p.B, y.p.B)
		})
		recv := r.received[v][:0]
		for _, tg := range b {
			recv = append(recv, tg.p)
		}
		r.received[v] = recv
	}
	load := maxOut
	if maxIn > load {
		load = maxIn
	}
	r.rounds = (load+r.n-2)/(r.n-1) + 1
	if load == 0 {
		r.rounds = 0
	}
}
