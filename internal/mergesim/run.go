package mergesim

import (
	"errors"
	"fmt"

	"mucongest/internal/congest"
	"mucongest/internal/graph"
	"mucongest/internal/sim"
	"mucongest/internal/stream"
)

// RunOneWay executes Theorem 1.6 on g with per-node item multisets and
// returns the root's merged summary plus run statistics.
func RunOneWay(g *graph.Graph, items [][]int64, kind stream.Kind, opts ...sim.Option) (stream.Summary, *sim.Result, error) {
	return runMerge(g, kind, OneWayProgram(items, kind, 0, g.N()), opts...)
}

// RunFully executes Theorem 1.7 with memory bound mu (≤0 for pure
// pairwise merging).
func RunFully(g *graph.Graph, items [][]int64, kind stream.Kind, mu int64, opts ...sim.Option) (stream.Summary, *sim.Result, error) {
	return runMerge(g, kind, FullyProgram(items, kind, 0, g.N(), g.MaxDegree(), mu), opts...)
}

// RunComposable executes Theorem 1.8.
func RunComposable(g *graph.Graph, items [][]int64, kind stream.Kind, opts ...sim.Option) (stream.Summary, *sim.Result, error) {
	return runMerge(g, kind, ComposableProgram(items, kind, 0, g.N()), opts...)
}

// errDisconnected rejects a graph the root's BFS tree cannot span.
var errDisconnected = errors.New("mergesim: disconnected graph: the root's BFS tree must span every node")

func runMerge(g *graph.Graph, kind stream.Kind, program func(*sim.Ctx), opts ...sim.Option) (stream.Summary, *sim.Result, error) {
	if !g.Connected() {
		return nil, nil, errDisconnected
	}
	e := sim.New(g, opts...)
	res, err := e.Run(program)
	if err != nil {
		return nil, res, err
	}
	if len(res.Outputs[0]) == 0 {
		return nil, res, fmt.Errorf("mergesim: root emitted nothing")
	}
	words, ok := res.Outputs[0][0].([]int64)
	if !ok {
		return nil, res, fmt.Errorf("mergesim: unexpected root output %T", res.Outputs[0][0])
	}
	return kind.FromWords(words), res, nil
}

// ExactCountProgram is the paper's Theorem 1.7 application refinement:
// given ≤ 3/ε candidate labels (found by the sketch pass), count each
// candidate's exact frequency by propagating per-label counts up a BFS
// tree — O(ε⁻¹ + D) rounds and O(Δ + ε⁻¹) memory. Every node emits the
// exact counts (root-authoritative; broadcast included).
func ExactCountProgram(items [][]int64, candidates []int64, root, maxDepth int) func(*sim.Ctx) {
	return func(c *sim.Ctx) {
		tr := congest.BuildBFSTree(c, root, maxDepth)
		local := make([]int64, len(candidates))
		for _, x := range items[c.ID()] {
			for i, cand := range candidates {
				if x == cand {
					local[i]++
				}
			}
		}
		c.Charge(int64(len(candidates)))
		defer c.Release(int64(len(candidates)))
		up := congest.Convergecast(c, tr, maxDepth, local, congest.OpSum)
		counts := congest.BroadcastDown(c, tr, maxDepth, len(candidates), up)
		if c.ID() == root {
			c.Emit(counts)
		}
	}
}

// RunExactCounts executes ExactCountProgram and returns the exact
// frequencies of the candidate labels.
func RunExactCounts(g *graph.Graph, items [][]int64, candidates []int64, opts ...sim.Option) ([]int64, *sim.Result, error) {
	if !g.Connected() {
		return nil, nil, errDisconnected
	}
	e := sim.New(g, opts...)
	res, err := e.Run(ExactCountProgram(items, candidates, 0, g.N()))
	if err != nil {
		return nil, res, err
	}
	return res.Outputs[0][0].([]int64), res, nil
}

// TotalItems returns |I| = Σ t_v.
func TotalItems(items [][]int64) int64 {
	var t int64
	for _, it := range items {
		t += int64(len(it))
	}
	return t
}
