package clique

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mucongest/internal/graph"
	"mucongest/internal/lowerbound"
	"mucongest/internal/sim"
)

func TestListAllSmall(t *testing.T) {
	// K4 has 4 triangles and 1 4-clique.
	g, _ := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		{U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
	})
	if tri := ListAll(g, 3); len(tri) != 4 {
		t.Fatalf("triangles in K4: %d", len(tri))
	}
	if k4 := ListAll(g, 4); len(k4) != 1 {
		t.Fatalf("4-cliques in K4: %d", len(k4))
	}
	if k5 := ListAll(g, 5); len(k5) != 0 {
		t.Fatalf("5-cliques in K4: %d", len(k5))
	}
}

func TestListInEdgeSetMatchesListAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Gnp(14, 0.5, rng)
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	for k := 3; k <= 4; k++ {
		a := ListAll(g, k)
		b := ListInEdgeSet(edges, k)
		if !SameSet(a, b) {
			t.Fatalf("k=%d: edge-set listing differs (%d vs %d)", k, len(a), len(b))
		}
	}
}

func TestDedupAndSameSet(t *testing.T) {
	a := []Clique{{1, 2, 3}, {3, 2, 1}, {4, 5, 6}}
	d := Dedup(a)
	if len(d) != 2 {
		t.Fatalf("dedup -> %d", len(d))
	}
	if !SameSet(a, []Clique{{4, 5, 6}, {1, 2, 3}}) {
		t.Fatal("SameSet false negative")
	}
	if SameSet(a, []Clique{{1, 2, 3}}) {
		t.Fatal("SameSet false positive")
	}
}

func TestLocalListingCompleteOnLowDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(24, 0.3, rng)
	// Bound above Δ: every node active, so ALL triangles must be found.
	bound := g.MaxDegree()
	e := sim.New(g)
	res, err := e.Run(LocalListing(g, bound, bound))
	if err != nil {
		t.Fatal(err)
	}
	got := CollectTriangles(res)
	want := ListAll(g, 3)
	if !SameSet(got, want) {
		t.Fatalf("local listing found %d triangles, want %d", len(got), len(want))
	}
}

func TestLocalListingPartialCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(30, 0.4, rng)
	bound := 8
	e := sim.New(g)
	res, err := e.Run(LocalListing(g, bound, bound))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, cl := range CollectTriangles(res) {
		got[cl.Key()] = true
	}
	// Every triangle containing an active (deg ≤ bound) node must appear.
	for _, tri := range ListAll(g, 3) {
		hasActive := false
		for _, v := range tri {
			if g.Degree(v) <= bound {
				hasActive = true
			}
		}
		if hasActive && !got[tri.Key()] {
			t.Fatalf("missed triangle %v with active node", tri)
		}
	}
}

func TestLocalListingRoundsLinearInBound(t *testing.T) {
	g := graph.Star(40) // hub has degree 39, leaves degree 1
	e := sim.New(g)
	res, err := e.Run(LocalListing(g, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 4 {
		t.Fatalf("low-degree listing used %d rounds", res.Rounds)
	}
}

func TestOracleRouterDelivers(t *testing.T) {
	n := 10
	router := NewOracleRouter(n)
	e := sim.New(sim.NewComplete(n))
	res, err := e.Run(func(c *sim.Ctx) {
		// Everyone sends its id to node (id+1) mod n, 5 copies.
		var out []Packet
		for i := 0; i < 5; i++ {
			out = append(out, Packet{Dst: (c.ID() + 1) % n, A: int64(c.ID()), B: int64(i)})
		}
		in := router.Route(c, out)
		if len(in) != 5 {
			c.Emit(-1)
			return
		}
		for _, p := range in {
			if int(p.A) != (c.ID()+n-1)%n {
				c.Emit(-2)
				return
			}
		}
		c.Emit(int64(len(in)))
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if res.Outputs[v][0].(int64) != 5 {
			t.Fatalf("node %d: %v", v, res.Outputs[v][0])
		}
	}
}

func TestOracleRouterRoundCharge(t *testing.T) {
	n := 8
	router := NewOracleRouter(n)
	e := sim.New(sim.NewComplete(n))
	// Each node sends 2 messages to every other node: maxIn = maxOut =
	// 2(n-1), so routing costs ⌈2(n-1)/(n-1)⌉+1 = 3 rounds + 2 barriers.
	res, err := e.Run(func(c *sim.Ctx) {
		var out []Packet
		for rep := 0; rep < 2; rep++ {
			for d := 0; d < n; d++ {
				if d != c.ID() {
					out = append(out, Packet{Dst: d, A: int64(rep)})
				}
			}
		}
		router.Route(c, out)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 2 + 1
	if res.Rounds != want {
		t.Fatalf("rounds %d want %d", res.Rounds, want)
	}
}

// TestOracleRouterChargeAndOrder pins Route's round charge — 2 rounds
// of schedule agreement plus ⌈L/(n-1)⌉+1 routing rounds for load L > 0
// — at load 0, at loads up to n-1 and above, over two consecutive calls
// (so the reused buffers are exercised), and the per-destination packet
// order: ascending source, then (A, B), duplicates in deposit order.
func TestOracleRouterChargeAndOrder(t *testing.T) {
	const n = 8
	cases := []struct {
		name   string
		send   func(id int) []Packet
		charge int
	}{
		{"load 0", func(int) []Packet { return nil }, 2},
		{"load 1", func(id int) []Packet { return []Packet{{Dst: (id + 1) % n}} }, 2 + 2},
		{"load n-1", func(id int) []Packet {
			var out []Packet
			for d := 0; d < n; d++ {
				if d != id {
					out = append(out, Packet{Dst: d})
				}
			}
			return out
		}, 2 + 2},
		{"load n", func(id int) []Packet {
			if id != 0 {
				return nil
			}
			return make([]Packet, n) // n packets from node 0 to itself
		}, 2 + 3},
		{"load 3n-2", func(id int) []Packet {
			if id != 1 {
				return nil
			}
			return make([]Packet, 3*n-2) // 3(n-1)+1 packets from node 1 to node 0
		}, 2 + 5},
	}
	for _, tc := range cases {
		router := NewOracleRouter(n)
		res, err := sim.New(sim.NewComplete(n)).Run(func(c *sim.Ctx) {
			for call := 0; call < 2; call++ {
				router.Route(c, tc.send(c.ID()))
				c.Emit(c.Round())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if got := fmt.Sprint(res.Outputs[v]); got != fmt.Sprint([]int{tc.charge, 2 * tc.charge}) {
				t.Fatalf("%s: node %d Round() after each call %s, want %d per call", tc.name, v, got, tc.charge)
			}
		}
	}

	// Order: every source deposits the same scrambled batch, with a
	// duplicated (A, B) pair told apart only by C, into node 0.
	batch := []Packet{{A: 3, B: 1, C: 0}, {A: 1, B: 2, C: 1}, {A: 1, B: 0, C: 2}, {A: 1, B: 2, C: 3}, {A: 1, B: 2, C: 4}}
	router := NewOracleRouter(n)
	res, err := sim.New(sim.NewComplete(n)).Run(func(c *sim.Ctx) {
		out := make([]Packet, len(batch))
		for i, p := range batch {
			p.B += int64(10 * c.ID()) // distinguish sources
			out[i] = p
		}
		for call := 0; call < 2; call++ {
			in := router.Route(c, out)
			got := make([]Packet, len(in))
			copy(got, in)
			c.Emit(got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []Packet
	for src := 0; src < n; src++ {
		b := int64(10 * src)
		want = append(want,
			Packet{A: 1, B: b, C: 2}, Packet{A: 1, B: b + 2, C: 1}, Packet{A: 1, B: b + 2, C: 3},
			Packet{A: 1, B: b + 2, C: 4}, Packet{A: 3, B: b + 1, C: 0})
	}
	for call := 0; call < 2; call++ {
		if got := fmt.Sprint(res.Outputs[0][call]); got != fmt.Sprint(want) {
			t.Fatalf("call %d: node 0 received\n%s\nwant\n%s", call, got, fmt.Sprint(want))
		}
	}
	for v := 1; v < n; v++ {
		if got := res.Outputs[v][0].([]Packet); len(got) != 0 {
			t.Fatalf("node %d received %d packets, want none", v, len(got))
		}
	}
}

func runCC(t *testing.T, g *graph.Graph, k int, mu int64) ([]Clique, *sim.Result) {
	t.Helper()
	router := NewOracleRouter(g.N())
	e := sim.New(sim.NewComplete(g.N()), sim.WithMu(mu*4)) // O(μ) slack
	res, err := e.Run(CongestedCliqueKCliques(g, k, mu, router))
	if err != nil {
		t.Fatal(err)
	}
	return CollectTriangles(res), res
}

func TestCongestedCliqueTrianglesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 27} {
		g := graph.Gnp(n, 0.5, rng)
		mu := int64(n) * 2
		got, _ := runCC(t, g, 3, mu)
		want := ListAll(g, 3)
		if !SameSet(got, want) {
			t.Fatalf("n=%d: CC listing %d triangles want %d", n, len(got), len(want))
		}
	}
}

func TestCongestedClique4Cliques(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Gnp(16, 0.6, rng)
	got, _ := runCC(t, g, 4, 32)
	want := ListAll(g, 4)
	if !SameSet(got, want) {
		t.Fatalf("4-cliques: %d want %d", len(got), len(want))
	}
}

func TestCongestedCliqueMemoryScalesWithMu(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.Gnp(32, 0.5, rng)
	_, resSmall := runCC(t, g, 3, 32)
	_, resBig := runCC(t, g, 3, 512)
	if resSmall.MaxPeakWords() >= resBig.MaxPeakWords() {
		t.Fatalf("peak memory should grow with μ: %d vs %d",
			resSmall.MaxPeakWords(), resBig.MaxPeakWords())
	}
	if len(resSmall.Violations) > 0 || len(resBig.Violations) > 0 {
		t.Fatalf("μ violations: %v %v", resSmall.Violations, resBig.Violations)
	}
}

func TestCongestedCliqueRoundsDecreaseWithMu(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(48, 0.5, rng)
	_, r1 := runCC(t, g, 3, 48)
	_, r2 := runCC(t, g, 3, 48*8)
	if r2.Rounds >= r1.Rounds {
		t.Fatalf("rounds must drop as μ grows: μ=n %d vs μ=8n %d", r1.Rounds, r2.Rounds)
	}
}

func TestCliqueCountBoundLemma21(t *testing.T) {
	// Lemma 2.1: a graph with m edges has O(m^(k/2)) k-cliques.
	f := func(seed int64, nRaw, pRaw uint8) bool {
		n := int(nRaw%16) + 6
		p := 0.2 + float64(pRaw%60)/100
		g := graph.Gnp(n, p, rand.New(rand.NewSource(seed)))
		m := float64(g.M())
		for k := 3; k <= 4; k++ {
			cnt := float64(len(ListAll(g, k)))
			if cnt > lowerbound.KCliqueMax(m, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
