// Package mergesim implements Section 3.1: network-wide simulation of
// mergeable streaming algorithms in μ-CONGEST.
//
//   - One-way mergeable (Theorem 1.6): the tree is cut into O(√(|I|/M))
//     clusters of ≈ s = √(|I|·M) information each; every cluster leader
//     summarizes its cluster's items (A2), and all summaries converge to
//     the root, which folds them one-way (A1) into the main summary.
//   - Fully mergeable (Theorem 1.7): level-synchronous hierarchical
//     pairwise merging up the BFS tree, with the final per-node stage
//     collecting up to μ/(2M) summaries at once — realizing the
//     M·log(Δ/(μ/M)) per-level cost. (Documented deviation from the paper:
//     the paper recurses on information-centroids for log|I| depth; we
//     recurse on BFS levels, identical on the low-diameter workloads.)
//   - Composable (Theorem 1.8): same levels, but children stream their
//     serialized words in parallel and the parent folds word-by-word
//     (Definition 3.3), collapsing each level to M+O(1) rounds.
package mergesim

import (
	"math"

	"mucongest/internal/congest"
	"mucongest/internal/sim"
	"mucongest/internal/stream"
)

const (
	kindWeight int32 = congest.KindUser + 32 + iota
	kindCluster
	kindRole
	kindMergeWord
)

// OneWayProgram returns the Theorem 1.6 node program. items[v] is node
// v's input multiset I_v; kind supplies the one-way mergeable summary.
// The root (node `root`) emits the final summary's serialized words.
func OneWayProgram(items [][]int64, kind stream.Kind, root, maxDepth int) func(*sim.Ctx) {
	return func(c *sim.Ctx) {
		tr := congest.BuildBFSTree(c, root, maxDepth)
		mine := items[c.ID()]
		tv := int64(len(mine))

		// Subtree weights and |I|.
		W := congest.Convergecast(c, tr, maxDepth, []int64{tv}, congest.OpSum)[0]
		// Learn children's subtree weights (one extra round).
		if tr.Parent >= 0 {
			c.SendID(tr.Parent, sim.Msg{Kind: kindWeight, A: W})
		}
		childW := make(map[int]int64, len(tr.Children))
		for _, m := range c.Tick() {
			if m.Msg.Kind == kindWeight {
				childW[m.From] = m.Msg.A
			}
		}
		totalI := congest.BroadcastDown(c, tr, maxDepth, 1, []int64{W})[0]
		M := int64(kind.M())
		s := int64(math.Sqrt(float64(totalI) * float64(M)))
		if s < 1 {
			s = 1
		}

		// Leaders: minimal subtrees of weight ≥ s, plus the root.
		isLeader := c.ID() == root
		if W >= s {
			heavyChild := false
			for _, w := range childW {
				if w >= s {
					heavyChild = true
				}
			}
			if !heavyChild {
				isLeader = true
			}
		}
		// Cluster flood: each node learns its leader (depth-pipelined).
		myLeader := -1
		if isLeader {
			myLeader = c.ID()
		}
		for r := 0; r < maxDepth+2; r++ {
			if myLeader >= 0 && r == tr.Depth {
				for _, ch := range tr.Children {
					c.SendID(ch, sim.Msg{Kind: kindCluster, A: int64(myLeader)})
				}
			}
			for _, m := range c.Tick() {
				if m.Msg.Kind == kindCluster && myLeader < 0 {
					myLeader = int(m.Msg.A)
				}
			}
		}

		// Stream items to leaders (A2 at each leader).
		var summary stream.Summary
		if isLeader {
			summary = kind.New()
			c.Charge(M)
			defer c.Release(M)
		}
		gatherItems(c, tr, maxDepth, isLeader, mine, summary)

		// Converge leader summaries to the root; fold one-way (A1).
		mainWords := gatherSummaries(c, tr, maxDepth, isLeader, summary, kind, root)
		if c.ID() == root {
			c.Emit(mainWords)
		}
	}
}

// gatherItems pipelines every node's items to its cluster leader over
// congest.Upcast with credit flow control; leaders Insert arriving
// items.
func gatherItems(c *sim.Ctx, tr *congest.Tree, maxDepth int,
	isLeader bool, mine []int64, summary stream.Summary) {

	queued := len(mine)
	if isLeader {
		queued = 0
	}
	charged := int64(queued + 2*len(tr.Children) + 8)
	c.Charge(charged)
	defer c.Release(charged)
	msgs := make([]sim.Msg, len(mine))
	for i, x := range mine {
		msgs[i] = sim.Msg{A: x}
	}
	congest.Upcast(c, tr, maxDepth, msgs, isLeader, true, false,
		func(m sim.Msg) { summary.Insert(m.A) })
}

// gatherSummaries streams every leader's serialized summary up the tree
// over congest.Upcast (FIFO relays, words tagged with the leader id);
// the root reassembles arriving summaries and folds each completed one
// into the main summary via the one-way merge. Returns the main
// summary's words at the root.
func gatherSummaries(c *sim.Ctx, tr *congest.Tree, maxDepth int,
	isLeader bool, summary stream.Summary, kind stream.Kind, root int) []int64 {

	var mine []sim.Msg
	if isLeader && c.ID() != root {
		for i, w := range summary.Words() {
			mine = append(mine, sim.Msg{A: int64(c.ID()), B: int64(i), C: w})
		}
	}
	c.Charge(int64(len(mine) + 8))
	defer c.Release(int64(len(mine) + 8))
	if c.ID() != root {
		congest.Upcast(c, tr, maxDepth, mine, false, false, false, nil)
		return nil
	}
	M := kind.M()
	main := summary.(stream.OneWayMergeable)
	partial := map[int64][]int64{}
	gotWords := map[int64]int{}
	congest.Upcast(c, tr, maxDepth, nil, true, false, false, func(m sim.Msg) {
		l := m.A
		if partial[l] == nil {
			partial[l] = make([]int64, M)
			c.Charge(int64(M))
		}
		partial[l][m.B] = m.C
		gotWords[l]++
		if gotWords[l] == M {
			main.MergeFrom(partial[l])
			delete(partial, l)
			delete(gotWords, l)
			c.Release(int64(M))
		}
	})
	return main.Words()
}
