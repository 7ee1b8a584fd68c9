package streamsim

import (
	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// Message kinds for the replay and random-order shuffle protocols.
const (
	kindEdge int32 = congest.KindUser + iota
	kindDone
	kindCache       // sink -> neighbor: store this edge in the cache
	kindDirective   // sink -> neighbor: Birkhoff schedule entry (dest,count)
	kindShuffleEdge // rerouting traffic of the random-order shuffle
)

// edgeMsg packs e into a message payload; msgEdge unpacks it.
func edgeMsg(e graph.Edge) sim.Msg { return sim.Msg{A: int64(e.U), B: int64(e.V), C: e.Label} }
func msgEdge(m sim.Msg) graph.Edge { return graph.Edge{U: int(m.A), V: int(m.B), Label: m.C} }

// gatherToSink pipelines every node's owned edges to the tree root
// over congest.Upcast with credit flow control (window 2 per child), so
// relay queues stay at O(deg) words and the μ-bound is respected. The
// sink consumes edges via onEdge in arrival order. With cache=true the
// sink additionally deals every edge round-robin to its tree children
// (its graph neighbors) as cache entries of at most ⌈m/Δ⌉ ≤ n edges
// each — the Theorem 1.3 edge-caching step; the function returns this
// node's cache as edge payloads.
func gatherToSink(c *sim.Ctx, tr *congest.Tree, maxDepth int,
	myEdges []graph.Edge, onEdge func(graph.Edge), cache bool) []sim.Msg {

	charged := int64(len(myEdges) + 2*len(tr.Children) + 8)
	c.Charge(charged)
	defer c.Release(charged)
	mine := make([]sim.Msg, len(myEdges))
	for i, e := range myEdges {
		mine[i] = edgeMsg(e)
	}
	return congest.Upcast(c, tr, maxDepth, mine, c.ID() == tr.Root, true, cache,
		func(m sim.Msg) { onEdge(msgEdge(m)) })
}

// replayFromCache streams every sink-neighbor's cached edge list to the
// sink in parallel, one edge per link per round (per round, arrivals
// are ordered by sender id, which the random-order shuffle uses as the
// slot convention). The sink consumes the edges via onEdge and skips
// dummy padding entries (U < 0); then it ends the replay with the
// FINISH countdown.
func replayFromCache(c *sim.Ctx, tr *congest.Tree, maxDepth int,
	myCache []sim.Msg, onEdge func(graph.Edge)) {

	if c.ID() == tr.Root {
		for waiting := len(tr.Children); waiting > 0; {
			for _, m := range c.Tick() {
				switch {
				case m.Msg.Kind == kindDone:
					waiting--
				case m.Msg.Kind == kindEdge && m.Msg.A >= 0:
					onEdge(msgEdge(m.Msg))
				}
			}
		}
		congest.Finish(c, tr, maxDepth)
		return
	}
	doneSent := false
	for {
		if tr.Parent == tr.Root {
			if len(myCache) > 0 {
				m := myCache[0]
				myCache = myCache[1:]
				m.Kind = kindEdge
				c.SendID(tr.Parent, m)
			} else if !doneSent {
				doneSent = true
				c.SendID(tr.Parent, sim.Msg{Kind: kindDone})
			}
		}
		for _, m := range c.Tick() {
			if congest.Finished(c, tr, m) {
				return
			}
		}
	}
}
