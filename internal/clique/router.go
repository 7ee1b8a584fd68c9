package clique

import (
	"cmp"
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
// Route is an SPMD subroutine: every node must call it at the same
// logical point. Memory for the received batch is charged to the
// receiving node by the caller.
type OracleRouter struct {
	n        int
	mu       sync.Mutex
	deposits [][]Packet
	received [][]Packet
	rounds   int
	// scheduled reports that schedule already ran for the current Route
	// call: the first node past the deposit barrier computes it, the
	// rest read it. Each call's deposits reset it.
	scheduled bool

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
// it is valid only until this node's next Route. Copy any packets that
// must outlive it.
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
