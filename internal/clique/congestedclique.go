package clique

import (
	"math"
	"sort"

	"mucongest/internal/cover"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// ccPlan is the deterministic global schedule of Theorem 2.10: node
// groups, master assignments, and per-master subset covers. Every node
// computes the identical plan locally from (n, k, μ), so the plan needs
// no communication — exactly as in the paper's proof.
type ccPlan struct {
	k         int
	groups    [][]int // node ids per group
	multisets [][]int // each a sorted multiset of group indices
	masters   []int   // master node per multiset
	covers    [][][]int
	universes [][]int // sorted union of group members per multiset
	blocks    int
}

func newCCPlan(n, k int, mu int64) *ccPlan {
	gc := int(math.Floor(math.Pow(float64(n), 1/float64(k))))
	if gc < 1 {
		gc = 1
	}
	gs := (n + gc - 1) / gc
	p := &ccPlan{k: k}
	for j := 0; j < gc; j++ {
		lo, hi := j*gs, (j+1)*gs
		if hi > n {
			hi = n
		}
		grp := make([]int, 0, hi-lo)
		for v := lo; v < hi; v++ {
			grp = append(grp, v)
		}
		if len(grp) > 0 {
			p.groups = append(p.groups, grp)
		}
	}
	gc = len(p.groups)
	// Enumerate multisets of k group indices.
	idx := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			ms := make([]int, k)
			copy(ms, idx)
			p.multisets = append(p.multisets, ms)
			return
		}
		for j := start; j < gc; j++ {
			idx[pos] = j
			rec(pos+1, j)
		}
	}
	rec(0, 0)
	b := int(math.Floor(math.Sqrt(float64(mu))))
	if b < k {
		b = k
	}
	for t, ms := range p.multisets {
		p.masters = append(p.masters, t%n)
		seen := map[int]bool{}
		var uni []int
		for _, j := range ms {
			if !seen[j] {
				seen[j] = true
				uni = append(uni, p.groups[j]...)
			}
		}
		sort.Ints(uni)
		p.universes = append(p.universes, uni)
		cov := cover.New(len(uni), b, k)
		p.covers = append(p.covers, cov)
		if len(cov) > p.blocks {
			p.blocks = len(cov)
		}
	}
	return p
}

// ccChunk is the number of consecutive cover blocks CongestedCliqueKCliques
// routes per RouteBatch call. It bounds the router's per-block receive
// buffers, host memory outside the μ meter: a chunk of 1,024 blocks
// raised the default grid's peak RSS by half for little extra speed.
const ccChunk = 64

// CongestedCliqueKCliques implements Theorem 2.10: deterministic
// k-clique listing in the μ-Congested-Clique in O(n^(k-2)/μ^(k/2-1))
// rounds for n ≤ μ ≤ n^(2-2/k). The returned program must be run on a
// sim.Engine over sim.NewComplete(g.N()); each node's input is its
// incident edges of g. All nodes share router (created once per run).
//
// Schedule: in block i, the master of every group-multiset receives all
// edges inside the i-th set of its subset cover (at most ~μ edge words)
// via Lenzen routing, lists the k-cliques in that batch, emits them,
// and frees the batch.
//
// The schedule is oblivious: what a node sends in block i depends only
// on the plan and its own adjacency. So the program routes a chunk of
// consecutive blocks per RouteBatch call, at the rounds, outputs and
// barrier memory accounting of one Route call per block. A master
// charges, lists and releases each block of a chunk after the chunk's
// last round, so under sim.WithStrictMemory a block's batch that
// exceeds μ aborts the run in the last round of its chunk rather than
// its own, on the lowest-id node over μ anywhere in the chunk.
func CongestedCliqueKCliques(g *graph.Graph, k int, mu int64, router *OracleRouter) func(*sim.Ctx) {
	return congestedCliqueKCliques(g, k, mu, router, ccChunk)
}

// congestedCliqueKCliques is CongestedCliqueKCliques routing chunk
// blocks per RouteBatch call.
func congestedCliqueKCliques(g *graph.Graph, k int, mu int64, router *OracleRouter, chunk int) func(*sim.Ctx) {
	plan := newCCPlan(g.N(), k, mu)
	return func(c *sim.Ctx) {
		id := c.ID()
		nbr := g.Neighbors(id)
		c.Charge(int64(len(nbr))) // input adjacency
		defer c.Release(int64(len(nbr)))

		// inS[v] == stamp marks v as a member of the cover set under
		// test: one marker slice per node, re-stamped per (block, cover)
		// instead of a fresh membership set each time.
		inS := make([]int, g.N())
		stamp := 0
		outs := make([][]Packet, chunk)
		var edges [][2]int
		var l lister
		for lo := 0; lo < plan.blocks; lo += chunk {
			outs = outs[:min(chunk, plan.blocks-lo)]
			for i := range outs {
				blk := lo + i
				out := outs[i][:0]
				for t, cov := range plan.covers {
					if blk >= len(cov) {
						continue
					}
					uni := plan.universes[t]
					stamp++
					for _, li := range cov[blk] {
						inS[uni[li]] = stamp
					}
					if inS[id] != stamp {
						continue
					}
					dst := plan.masters[t]
					for _, w := range nbr {
						if w > id && inS[w] == stamp {
							out = append(out, Packet{Dst: dst, A: int64(id), B: int64(w)})
						}
					}
				}
				outs[i] = out
			}
			for _, recv := range router.RouteBatch(c, outs) {
				if len(recv) == 0 {
					continue
				}
				c.Charge(int64(2 * len(recv))) // the ≤ O(μ) edge batch
				edges = edges[:0]
				for _, p := range recv {
					edges = append(edges, [2]int{int(p.A), int(p.B)})
				}
				for _, cl := range l.list(edges, k) {
					c.Emit(cl)
				}
				c.Release(int64(2 * len(recv)))
			}
		}
	}
}

// PredictedCCRounds returns the Theorem 2.10 bound n^(k-2)/μ^(k/2-1),
// the theory column of experiment E2.
func PredictedCCRounds(n int, k int, mu int64) float64 {
	return math.Pow(float64(n), float64(k-2)) / math.Pow(float64(mu), float64(k)/2-1)
}
