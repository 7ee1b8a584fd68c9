package congest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// runAll executes program on g and fails the test on error.
func runAll(t *testing.T, g *graph.Graph, program func(*sim.Ctx), opts ...sim.Option) *sim.Result {
	t.Helper()
	e := sim.New(g, opts...)
	res, err := e.Run(program)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(11))
	return map[string]*graph.Graph{
		"path":    graph.Path(9),
		"cycle":   graph.Cycle(10),
		"star":    graph.Star(12),
		"gnp":     graph.GnpConnected(25, 0.25, rng),
		"cliques": graph.CycleOfCliques(3, 4),
	}
}

func TestBuildBFSTreeValid(t *testing.T) {
	for name, g := range testGraphs(t) {
		root := 0
		maxDepth := g.N()
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, root, maxDepth)
			c.Emit(tr)
		})
		trees := make([]*Tree, g.N())
		for v := 0; v < g.N(); v++ {
			trees[v] = res.Outputs[v][0].(*Tree)
		}
		// Validate: root depth 0, parents joined at depth-1, children
		// lists consistent, depths are true BFS distances.
		if trees[root].Depth != 0 || trees[root].Parent != -1 {
			t.Fatalf("%s: bad root record %+v", name, trees[root])
		}
		dist := bfsDistances(g, root)
		for v := 0; v < g.N(); v++ {
			tr := trees[v]
			if !tr.Joined() {
				t.Fatalf("%s: node %d never joined", name, v)
			}
			if tr.Depth != dist[v] {
				t.Fatalf("%s: node %d depth %d want %d", name, v, tr.Depth, dist[v])
			}
			if v != root {
				p := trees[tr.Parent]
				if p.Depth != tr.Depth-1 {
					t.Fatalf("%s: node %d parent depth mismatch", name, v)
				}
				found := false
				for _, ch := range p.Children {
					if ch == v {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: node %d missing from parent's children", name, v)
				}
			}
		}
		// Children lists partition V \ {root}.
		total := 0
		for v := 0; v < g.N(); v++ {
			total += len(trees[v].Children)
		}
		if total != g.N()-1 {
			t.Fatalf("%s: children total %d want %d", name, total, g.N()-1)
		}
	}
}

func bfsDistances(g *graph.Graph, root int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	q := []int{root}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	return dist
}

func TestConvergecastSubtreeSums(t *testing.T) {
	for name, g := range testGraphs(t) {
		maxDepth := g.N()
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, 0, maxDepth)
			vals := []int64{int64(c.ID()), 1, int64(c.Degree())}
			acc := Convergecast(c, tr, maxDepth, vals, OpSum)
			c.Emit(acc)
		})
		rootAcc := res.Outputs[0][0].([]int64)
		n := int64(g.N())
		wantID := n * (n - 1) / 2
		if rootAcc[0] != wantID || rootAcc[1] != n || rootAcc[2] != 2*int64(g.M()) {
			t.Fatalf("%s: root aggregates %v want [%d %d %d]", name, rootAcc, wantID, n, 2*g.M())
		}
	}
}

func TestConvergecastMaxMin(t *testing.T) {
	g := graph.Path(7)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 3, g.N())
		mx := Convergecast(c, tr, g.N(), []int64{int64(c.ID() * c.ID())}, OpMax)
		mn := Convergecast(c, tr, g.N(), []int64{int64(c.ID() - 3)}, OpMin)
		c.Emit([2]int64{mx[0], mn[0]})
	})
	got := res.Outputs[3][0].([2]int64)
	if got[0] != 36 || got[1] != -3 {
		t.Fatalf("max/min = %v", got)
	}
}

func TestBroadcastDown(t *testing.T) {
	for name, g := range testGraphs(t) {
		maxDepth := g.N()
		want := []int64{17, -4, 99, 123456}
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, 0, maxDepth)
			var vals []int64
			if c.ID() == 0 {
				vals = want
			} else {
				vals = make([]int64, len(want)) // ignored at non-roots
			}
			got := BroadcastDown(c, tr, maxDepth, len(want), vals)
			c.Emit(got)
		})
		for v := 0; v < g.N(); v++ {
			got := res.Outputs[v][0].([]int64)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: node %d got %v", name, v, got)
				}
			}
		}
	}
}

func TestAggregateAllHelpers(t *testing.T) {
	g := graph.Cycle(9)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 4, g.N())
		s := SumAll(c, tr, g.N(), 2)
		mx := MaxAll(c, tr, g.N(), int64(c.ID()))
		mn := MinAll(c, tr, g.N(), int64(10+c.ID()))
		c.Emit([3]int64{s, mx, mn})
	})
	for v := 0; v < g.N(); v++ {
		got := res.Outputs[v][0].([3]int64)
		if got != [3]int64{18, 8, 10} {
			t.Fatalf("node %d got %v", v, got)
		}
	}
}

func TestConvergecastPipelinedRounds(t *testing.T) {
	// Lemma B.4 promises O(x + D) rounds: verify the x=64 aggregation on
	// a path of length 16 takes far fewer rounds than x·D.
	g := graph.Path(17)
	maxDepth := 16
	x := 64
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, maxDepth)
		vals := make([]int64, x)
		for i := range vals {
			vals[i] = int64(c.ID() + i)
		}
		Convergecast(c, tr, maxDepth, vals, OpSum)
	})
	treeRounds := 2 * (maxDepth + 2)
	aggRounds := res.Rounds - treeRounds
	if aggRounds > maxDepth+x+2 {
		t.Fatalf("convergecast used %d rounds, want ≤ %d (pipelining broken)", aggRounds, maxDepth+x+2)
	}
}

func TestDegreeClass(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1023: 9, 1024: 10}
	for deg, want := range cases {
		if got := DegreeClass(deg); got != want {
			t.Fatalf("DegreeClass(%d) = %d want %d", deg, got, want)
		}
	}
}

func TestDegreeClassRelabel(t *testing.T) {
	for name, g := range testGraphs(t) {
		maxDepth := g.N()
		res := runAll(t, g, func(c *sim.Ctx) {
			tr := BuildBFSTree(c, 0, maxDepth)
			rl := DegreeClassRelabel(c, tr, maxDepth, c.Degree())
			c.Emit(rl)
		})
		n := g.N()
		ids := make([]int, 0, n)
		for v := 0; v < n; v++ {
			rl := res.Outputs[v][0].(*Relabeling)
			ids = append(ids, int(rl.NewID))
			// The new id's class (computed from the histogram) must match
			// the node's actual degree class.
			if got, want := rl.ClassOfNewID(rl.NewID), DegreeClass(g.Degree(v)); got != want {
				t.Fatalf("%s: node %d new id %d classed %d want %d", name, v, rl.NewID, got, want)
			}
		}
		sort.Ints(ids)
		for i, id := range ids {
			if id != i {
				t.Fatalf("%s: new ids not a permutation: %v", name, ids)
			}
		}
		// Histogram must match reality.
		rl := res.Outputs[0][0].(*Relabeling)
		wantHist := make([]int64, rl.NumClasses)
		for v := 0; v < n; v++ {
			wantHist[DegreeClass(g.Degree(v))]++
		}
		for j := range wantHist {
			if rl.Hist[j] != wantHist[j] {
				t.Fatalf("%s: hist[%d] = %d want %d", name, j, rl.Hist[j], wantHist[j])
			}
		}
	}
}

func TestRelabelRoundsLinearInDepthPlusLog(t *testing.T) {
	g := graph.Path(33)
	maxDepth := 32
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, maxDepth)
		DegreeClassRelabel(c, tr, maxDepth, c.Degree())
	})
	// Tree 2(D+2), convergecast D+C, broadcast D+C, assignment 2D+C+3.
	// With D=32 and C≈7 this is well under 220; a per-class sequential
	// implementation would need ≥ C·D ≈ 224 for the assignment alone.
	if res.Rounds > 220 {
		t.Fatalf("relabel used %d rounds; pipelining regressed", res.Rounds)
	}
}

// TestBFSTreeSingleNode pins the degenerate tree: a one-node graph with
// maxDepth 0 must produce a root-only tree without panicking — the
// join/ack alternation has no edges to use, but the subroutine must
// still run its fixed round schedule and terminate.
func TestBFSTreeSingleNode(t *testing.T) {
	g := graph.Path(1)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, 0)
		c.Emit(tr)
	})
	tr := res.Outputs[0][0].(*Tree)
	if !tr.Joined() || tr.Root != 0 || tr.Parent != -1 || tr.Depth != 0 || len(tr.Children) != 0 {
		t.Fatalf("single-node tree malformed: %+v", tr)
	}
	if res.Messages != 0 {
		t.Fatalf("single-node tree sent %d messages", res.Messages)
	}
}

// TestRelabelSingleNodeIdentity pins the degenerate relabeling: on a
// one-node graph the pipeline (convergecast, broadcast, doubly
// pipelined assignment) collapses to the root acting alone, and the
// result must be the identity: new id 0 in class 0 with a one-entry
// histogram.
func TestRelabelSingleNodeIdentity(t *testing.T) {
	g := graph.Path(1)
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, 0)
		c.Emit(DegreeClassRelabel(c, tr, 0, c.Degree()))
	})
	rl := res.Outputs[0][0].(*Relabeling)
	if rl.NewID != 0 {
		t.Fatalf("single node relabeled to %d, want identity 0", rl.NewID)
	}
	if got, want := rl.ClassOfNewID(0), DegreeClass(0); got != want {
		t.Fatalf("class of new id 0 = %d, want %d", got, want)
	}
	var total int64
	for _, h := range rl.Hist {
		total += h
	}
	if total != 1 {
		t.Fatalf("histogram sums to %d over %v, want 1", total, rl.Hist)
	}
}

// TestRelabelUniformDegreePermutation pins the uniform-degree case: on
// a cycle every node shares degree class 1 (⌊log₂ 2⌋), so the
// relabeling must be a plain permutation of 0..n-1 inside one class —
// the closest a multi-node relabel comes to an identity.
func TestRelabelUniformDegreePermutation(t *testing.T) {
	const n = 10
	g := graph.Cycle(n)
	maxDepth := n
	res := runAll(t, g, func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, maxDepth)
		c.Emit(DegreeClassRelabel(c, tr, maxDepth, c.Degree()))
	})
	ids := make([]int, 0, n)
	for v := 0; v < n; v++ {
		rl := res.Outputs[v][0].(*Relabeling)
		if got := rl.ClassOfNewID(rl.NewID); got != 1 {
			t.Fatalf("node %d (degree 2) classed %d, want 1", v, got)
		}
		if rl.Hist[1] != n {
			t.Fatalf("node %d histogram %v, want all %d nodes in class 1", v, rl.Hist, n)
		}
		ids = append(ids, int(rl.NewID))
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i {
			t.Fatalf("new ids not a permutation of 0..%d: %v", n-1, ids)
		}
	}
}

// upcastRun is what one node reports from an Upcast test run.
type upcastRun struct {
	tree     *Tree
	consumed [][2]int64 // (origin, index) of every message consumed here
	dealt    int
	round    int
}

// TestUpcast runs Upcast with and without credits and with dealing, on
// a path, a star and a connected gnp, with the root as the only sink
// and with extra sinks inside the tree. Every node sends id%3+1 tagged
// messages. Each must be consumed exactly once, by its nearest sink
// ancestor-or-self; dealing must spread the root's messages evenly over
// its children; every node must return on the same round; and the
// engine's edge cap of 1 must never trip.
func TestUpcast(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*graph.Graph{
		"path": graph.Path(9),
		"star": graph.Star(12),
		"gnp":  graph.GnpConnected(25, 0.25, rng),
	}
	modes := []struct {
		name          string
		credits, deal bool
	}{{"credits", true, false}, {"plain", false, false}, {"deal", true, true}}
	for gname, g := range graphs {
		for _, inner := range []bool{false, true} {
			for _, mode := range modes {
				name := fmt.Sprintf("%s/inner=%v/%s", gname, inner, mode.name)
				isSink := func(v int) bool { return inner && v%4 == 1 }
				maxDepth := g.N()
				res := runAll(t, g, func(c *sim.Ctx) {
					tr := BuildBFSTree(c, 0, maxDepth)
					var mine []sim.Msg
					for j := 0; j <= c.ID()%3; j++ {
						mine = append(mine, sim.Msg{A: int64(c.ID()), B: int64(j)})
					}
					run := upcastRun{tree: tr}
					dealt := Upcast(c, tr, maxDepth, mine, isSink(c.ID()), mode.credits, mode.deal,
						func(m sim.Msg) { run.consumed = append(run.consumed, [2]int64{m.A, m.B}) })
					run.dealt, run.round = len(dealt), c.Round()
					c.Emit(run)
				}, sim.WithEdgeCap(1))
				runs := make([]upcastRun, g.N())
				for v := range runs {
					runs[v] = res.Outputs[v][0].(upcastRun)
				}
				// Expected consumer: the nearest sink ancestor-or-self.
				consumer := func(v int) int {
					for v != 0 && !isSink(v) {
						v = runs[v].tree.Parent
					}
					return v
				}
				seen := map[[2]int64]bool{}
				for v, r := range runs {
					if r.round != runs[0].round {
						t.Fatalf("%s: node %d returned at round %d, root at %d", name, v, r.round, runs[0].round)
					}
					for _, key := range r.consumed {
						if seen[key] {
							t.Fatalf("%s: message %v consumed twice", name, key)
						}
						seen[key] = true
						if want := consumer(int(key[0])); want != v {
							t.Fatalf("%s: message %v consumed at %d, want %d", name, key, v, want)
						}
					}
				}
				total := 0
				for v := 0; v < g.N(); v++ {
					total += v%3 + 1
				}
				if len(seen) != total {
					t.Fatalf("%s: %d messages consumed, want %d", name, len(seen), total)
				}
				dealtSum, lo, hi := 0, int(^uint(0)>>1), 0
				for _, ch := range runs[0].tree.Children {
					d := runs[ch].dealt
					dealtSum += d
					lo, hi = min(lo, d), max(hi, d)
				}
				switch {
				case mode.deal && (dealtSum != len(runs[0].consumed) || hi-lo > 1):
					t.Fatalf("%s: root consumed %d, dealt %d with per-child spread [%d,%d]",
						name, len(runs[0].consumed), dealtSum, lo, hi)
				case !mode.deal && dealtSum != 0:
					t.Fatalf("%s: %d messages dealt without deal", name, dealtSum)
				}
			}
		}
	}
}

// TestUpcastOutsideTreePanics: on a two-component graph the nodes the
// tree never reached fail with an error that names them, not with a
// send to the non-neighbor -1.
func TestUpcastOutsideTreePanics(t *testing.T) {
	g, err := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.New(g).Run(func(c *sim.Ctx) {
		tr := BuildBFSTree(c, 0, g.N())
		Upcast(c, tr, g.N(), []sim.Msg{{A: 1}}, false, true, false, func(sim.Msg) {})
	})
	if err == nil || !strings.Contains(err.Error(), "is outside the tree rooted at 0") ||
		strings.Contains(err.Error(), "non-neighbor") {
		t.Fatalf("got error %v, want a node outside the tree", err)
	}
}
