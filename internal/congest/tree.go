// Package congest implements the standard CONGEST building blocks the
// paper relies on, as synchronous subroutines over sim.Ctx: BFS-tree
// construction, pipelined convergecast aggregation (Lemma B.4),
// pipelined broadcast, global aggregate helpers, the degree-class
// relabeling of Lemma B.5, the pipelined upcast that collects messages
// at sinks up the tree (Upcast), and the FINISH countdown that ends a
// data-dependent subroutine on one round everywhere (Finish/Finished).
//
// Calling convention: these are SPMD subroutines — every node of the
// engine must call the same function at the same logical point of its
// program with consistent arguments, as all nodes advance in lockstep.
// Each subroutine runs for a fixed number of rounds derived from the
// caller-supplied depth bound, or ends with the FINISH countdown, so
// all nodes leave the subroutine simultaneously.
package congest

import (
	"mucongest/internal/sim"
)

// Message kinds used by this package. Other packages should use kinds
// ≥ KindUser to avoid collision inside composite programs.
const (
	kindJoin int32 = iota + 1
	kindChildAck
	kindAgg
	kindDown
	kindUp
	kindUpDone
	kindCredit
	kindDeal
	kindDealCredit
	kindFinish
	// KindUser is the first message kind available to client packages.
	KindUser int32 = 64
)

// Tree is a rooted spanning tree from the local node's point of view.
type Tree struct {
	Root     int
	Parent   int // -1 at the root (or if the node never joined)
	Depth    int // -1 if the node never joined
	Children []int
}

// Joined reports whether this node is part of the tree.
func (t *Tree) Joined() bool { return t.Depth >= 0 }

// BuildBFSTree constructs a BFS tree rooted at root. maxDepth must be
// an upper bound on the eccentricity of root (n-1 is always safe; tight
// bounds keep the round count at O(D)). The subroutine takes exactly
// 2·(maxDepth+2) rounds: JOIN and CHILD-ACK messages alternate so that a
// node's broadcast and its ack never contend for the same edge in the
// same round. Ties are broken toward the smallest parent id, making the
// tree deterministic. Memory: O(deg) words for the children list.
func BuildBFSTree(c *sim.Ctx, root, maxDepth int) *Tree {
	t := &Tree{Root: root, Parent: -1, Depth: -1}
	if c.ID() == root {
		t.Depth = 0
	}
	justJoined := t.Depth == 0
	pendingAck := -1
	c.Charge(int64(c.Degree())) // children list worst case
	for r := 0; r < maxDepth+2; r++ {
		// Phase A: newly joined nodes announce their depth.
		if justJoined {
			c.Broadcast(sim.Msg{Kind: kindJoin, A: int64(t.Depth)})
			justJoined = false
		}
		inA := c.Tick()
		if !t.Joined() {
			best := -1
			bestDepth := 0
			for _, m := range inA {
				if m.Msg.Kind != kindJoin {
					continue
				}
				if best == -1 || m.From < best {
					best = m.From
					bestDepth = int(m.Msg.A)
				}
			}
			if best >= 0 {
				t.Parent = best
				t.Depth = bestDepth + 1
				justJoined = true
				pendingAck = best
			}
		}
		// Phase B: acknowledge the chosen parent.
		if pendingAck >= 0 {
			c.SendID(pendingAck, sim.Msg{Kind: kindChildAck})
			pendingAck = -1
		}
		inB := c.Tick()
		for _, m := range inB {
			if m.Msg.Kind == kindChildAck {
				t.Children = append(t.Children, m.From)
			}
		}
	}
	return t
}
