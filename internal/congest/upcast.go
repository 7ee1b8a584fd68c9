package congest

import (
	"fmt"

	"mucongest/internal/sim"
)

// creditWindow is how many credits a parent keeps outstanding per child
// in a credited Upcast.
const creditWindow = 2

// Upcast pipelines every node's mine messages up the tree, one message
// per tree edge per round. A node with sink set consumes its own mine
// at entry and every message that reaches it, instead of relaying; the
// root always acts as a sink. Other nodes relay FIFO, so each message
// is consumed by its nearest sink ancestor-or-self. Only the A, B and C
// fields travel; consume sees the Kind this package stamps on them.
//
// With credits, a parent grants each unfinished child up to
// creditWindow credits and a child sends only against a credit. A relay
// grants no more than 2·|children|+4 minus its queue length per round,
// so relay queues stay at O(deg) messages. Without credits children
// send as fast as the edge allows.
//
// With deal, the root additionally deals every consumed message
// round-robin to its children, at most one per child per round; a
// credit due to that child rides on the dealt message. Each node
// returns what it was dealt — the Theorem 1.3 edge cache.
//
// Termination: a node sends DONE once its queue is empty and all its
// children are done; when the root has every DONE and has dealt
// everything it starts Finish, so every node returns on the same round.
// Upcast charges no memory; callers charge their own queues. It panics
// on a node outside the tree.
func Upcast(c *sim.Ctx, t *Tree, maxDepth int, mine []sim.Msg,
	sink, credits, deal bool, consume func(sim.Msg)) (dealt []sim.Msg) {

	if !t.Joined() {
		panic(fmt.Sprintf("congest: node %d is outside the tree rooted at %d (disconnected graph?)", c.ID(), t.Root))
	}
	root := t.Parent < 0
	sink = sink || root
	deal = deal && root
	var queue, egress []sim.Msg
	take := func(m sim.Msg) {
		if !sink {
			queue = append(queue, m)
			return
		}
		consume(m)
		if deal {
			egress = append(egress, m)
		}
	}
	if sink {
		for _, m := range mine {
			take(m)
		}
	} else {
		queue = mine[:len(mine):len(mine)] // the first append copies
	}

	// Per-child state, indexed like t.Children.
	type upChild struct {
		done, grant bool
		outstanding int // credits granted and not yet used
	}
	nc := len(t.Children)
	kids := make([]upChild, nc)
	child := make(map[int]int, nc) // child id -> index into kids
	for i, ch := range t.Children {
		child[ch] = i
	}
	ndone, credit, next := 0, 0, 0
	doneSent := false
	queueCap := 2*nc + 4

	for {
		// Child side: forward one message or announce completion.
		if !root {
			switch {
			case len(queue) > 0 && (!credits || credit > 0):
				m := queue[0]
				queue = queue[1:]
				credit-- // read only with credits
				m.Kind = kindUp
				c.SendID(t.Parent, m)
			case len(queue) == 0 && !doneSent && ndone == nc:
				doneSent = true
				c.SendID(t.Parent, sim.Msg{Kind: kindUpDone})
			}
		}
		// Parent side: at most one message per child — a dealt message
		// (carrying the child's credit, if due), a bare credit, or none.
		if credits {
			space := queueCap - len(queue)
			if sink {
				space = nc
			}
			for i := range kids {
				k := &kids[i]
				k.grant = space > 0 && !k.done && k.outstanding < creditWindow
				if k.grant {
					space--
				}
			}
		}
		for i := 0; i < nc && len(egress) > 0; i++ {
			j := next % nc
			next++
			m := egress[0]
			egress = egress[1:]
			m.Kind = kindDeal
			if k := &kids[j]; k.grant {
				m.Kind = kindDealCredit
				k.outstanding++
				k.grant = false
			}
			c.SendID(t.Children[j], m)
		}
		for j := range kids {
			if k := &kids[j]; k.grant {
				k.outstanding++
				c.SendID(t.Children[j], sim.Msg{Kind: kindCredit})
			}
		}
		if root && ndone == nc && len(egress) == 0 {
			Finish(c, t, maxDepth)
			return dealt
		}

		for _, in := range c.Tick() {
			if Finished(c, t, in) {
				return dealt
			}
			switch in.Msg.Kind {
			case kindUp:
				kids[child[in.From]].outstanding--
				take(in.Msg)
			case kindUpDone:
				kids[child[in.From]].done = true
				ndone++
			case kindCredit:
				credit++
			case kindDealCredit:
				credit++
				dealt = append(dealt, in.Msg)
			case kindDeal:
				dealt = append(dealt, in.Msg)
			}
		}
	}
}

// Finish starts the FINISH countdown at the root: every node that
// receives it through Finished returns on the same round as the root,
// maxDepth+1 rounds from now. maxDepth must bound the tree depth.
func Finish(c *sim.Ctx, t *Tree, maxDepth int) { countdown(c, t, maxDepth+1) }

// Finished reports whether in is the FINISH countdown. If it is, the
// node forwards the countdown to its children and sleeps until the
// root's Finish returns, so the caller should return too.
func Finished(c *sim.Ctx, t *Tree, in sim.Incoming) bool {
	if in.Msg.Kind != kindFinish {
		return false
	}
	countdown(c, t, int(in.Msg.A))
	return true
}

// countdown forwards ttl-1 to the children and sleeps ttl rounds.
func countdown(c *sim.Ctx, t *Tree, ttl int) {
	if ttl <= 0 {
		return
	}
	for _, ch := range t.Children {
		c.SendID(ch, sim.Msg{Kind: kindFinish, A: int64(ttl - 1)})
	}
	c.Idle(ttl)
}
