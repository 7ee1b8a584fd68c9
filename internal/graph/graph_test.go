package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromEdgesBasics(t *testing.T) {
	g, err := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 1}, {U: 3, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("missing edge 1-2")
	}
	if g.HasEdge(1, 3) {
		t.Fatal("phantom edge 1-3")
	}
	if g.Degree(0) != 2 || g.Degree(3) != 1 {
		t.Fatal("bad degrees")
	}
}

func TestFromEdgesRejectsBad(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{U: 1, V: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 0}}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := FromEdges(3, []Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := FromEdges(3, []Edge{{U: -1, V: 2}}); err == nil {
		t.Fatal("negative id accepted")
	}
}

// panicMessage runs f and returns what it panicked with ("" if it
// returned normally).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestBuilderContract pins the New/AddEdge/Finish life cycle: every
// read of an unfinished builder panics with a message naming the
// misuse (not an index-out-of-range), AddEdge after Finish panics, and
// Finish is idempotent.
func TestBuilderContract(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	reads := map[string]func(){
		"Neighbors":  func() { g.Neighbors(0) },
		"Degree":     func() { g.Degree(0) },
		"NeighborAt": func() { g.NeighborAt(0, 0) },
		"PortOf":     func() { g.PortOf(0, 1) },
		"HasEdge":    func() { g.HasEdge(0, 1) },
		"M":          func() { g.M() },
		"MaxDegree":  func() { g.MaxDegree() },
		"AvgDegree":  func() { g.AvgDegree() },
		"Edges":      func() { g.Edges() },
		"Connected":  func() { g.Connected() },
		"Diameter":   func() { g.Diameter() },
	}
	for name, read := range reads {
		if msg := panicMessage(read); !strings.Contains(msg, "before Finish") {
			t.Errorf("%s before Finish: panic %q, want one naming the missing Finish", name, msg)
		}
	}
	if msg := panicMessage(func() { g.AddEdge(1, 3) }); !strings.Contains(msg, "out of range") {
		t.Errorf("AddEdge out of range: panic %q", msg)
	}
	g.AddEdge(2, 1)
	g.Finish()
	g.Finish()
	if g.M() != 2 || !g.HasEdge(1, 2) || g.Degree(1) != 2 {
		t.Fatalf("finished builder: m=%d edges=%v", g.M(), g.Edges())
	}
	if msg := panicMessage(func() { g.AddEdge(0, 2) }); !strings.Contains(msg, "after Finish") {
		t.Errorf("AddEdge after Finish: panic %q", msg)
	}
	empty := New(0)
	empty.Finish()
	if empty.M() != 0 || empty.MaxDegree() != 0 || !empty.Connected() {
		t.Fatal("empty finished graph misreports")
	}
}

// TestNeighborsAllocFree pins Neighbors as a zero-copy view of the
// flat adjacency: clique listing calls it in its inner loop.
func TestNeighborsAllocFree(t *testing.T) {
	g := BarabasiAlbert(512, 3, rand.New(rand.NewSource(3)))
	sum := 0
	if a := testing.AllocsPerRun(100, func() {
		for v := 0; v < g.N(); v++ {
			sum += len(g.Neighbors(v))
		}
	}); a != 0 {
		t.Fatalf("Neighbors allocates %v times per sweep", a)
	}
	if sum == 0 {
		t.Fatal("no neighbors seen")
	}
}

// TestPortsMatchNeighbors checks the engine's port methods against the
// neighbor rows on every generator: rows are sorted and duplicate-free,
// Degree is the row length, and NeighborAt/PortOf are inverse along
// the row.
func TestPortsMatchNeighbors(t *testing.T) {
	seed := func() *rand.Rand { return rand.New(rand.NewSource(99)) }
	cases := map[string]*Graph{
		"cycle":     Cycle(97),
		"path":      Path(41),
		"star":      Star(33),
		"cycliques": CycleOfCliques(5, 6),
		"grid":      Grid(7, 5),
		"torus":     Torus(4, 5),
		"hypercube": Hypercube(5),
		"complete":  Complete(9),
		"gnp":       Gnp(60, 0.3, seed()),
		"gnpconn":   GnpConnected(40, 0.2, seed()),
		"hub":       HubAndBlob(50, 0.25, seed()),
		"barbell":   BarbellExpanders(20, 0.4, seed()),
		"regular":   RandomRegular(48, 5, seed()),
		"powerlaw":  BarabasiAlbert(300, 3, seed()),
	}
	for name, g := range cases {
		for v := 0; v < g.N(); v++ {
			row := g.Neighbors(v)
			if g.Degree(v) != len(row) {
				t.Fatalf("%s: node %d degree %d, row length %d", name, v, g.Degree(v), len(row))
			}
			for p, u := range row {
				if p > 0 && row[p-1] >= u {
					t.Fatalf("%s: node %d row not strictly ascending: %v", name, v, row)
				}
				if got := g.NeighborAt(v, p); got != u {
					t.Fatalf("%s: NeighborAt(%d,%d) = %d, want %d", name, v, p, got, u)
				}
				if got := g.PortOf(v, u); got != p {
					t.Fatalf("%s: PortOf(%d,%d) = %d, want %d", name, v, u, got, p)
				}
			}
			if g.PortOf(v, v) != -1 || g.PortOf(v, -1) != -1 || g.PortOf(v, g.N()) != -1 {
				t.Fatalf("%s: PortOf(%d, non-neighbor) should be -1", name, v)
			}
		}
		if msg := panicMessage(func() { g.NeighborAt(0, g.Degree(0)) }); !strings.Contains(msg, "no port") {
			t.Fatalf("%s: NeighborAt past the degree: panic %q", name, msg)
		}
	}
}

// TestCSRConnected pins Connected on both sides of the truth.
func TestCSRConnected(t *testing.T) {
	if !Cycle(50).Connected() {
		t.Error("cycle must be connected")
	}
	if Gnp(50, 0, rand.New(rand.NewSource(1))).Connected() {
		t.Error("empty G(50,0) must be disconnected")
	}
	if !Gnp(1, 0, rand.New(rand.NewSource(1))).Connected() {
		t.Error("single node is connected")
	}
}

// TestCSRBytes pins the memory model the topo registry budgets with
// against the arrays a finished graph actually holds.
func TestCSRBytes(t *testing.T) {
	g := BarabasiAlbert(1000, 3, rand.New(rand.NewSource(1)))
	held := 8 * int64(cap(g.offsets)+cap(g.adj))
	if got := CSRBytes(g.N(), int64(g.M())); got != held {
		t.Fatalf("CSRBytes(%d,%d) = %d, graph holds %d", g.N(), g.M(), got, held)
	}
	if want := int64(8*1001 + 16*1000); CSRBytes(1000, 1000) != want {
		t.Fatalf("CSRBytes(1000,1000) = %d, want %d", CSRBytes(1000, 1000), want)
	}
}

// TestGnpSparseSampler checks the skip-sampling regime above
// gnpDenseLimit: determinism for equal seeds, symmetric well-formed
// adjacency, and an edge count within a loose binomial window.
func TestGnpSparseSampler(t *testing.T) {
	const n = 3000 // > gnpDenseLimit
	const p = 0.001
	a := Gnp(n, p, rand.New(rand.NewSource(7)))
	b := Gnp(n, p, rand.New(rand.NewSource(7)))
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	for v := 0; v < n; v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			t.Fatalf("same seed, node %d rows %v vs %v", v, a.Neighbors(v), b.Neighbors(v))
		}
		for _, u := range a.Neighbors(v) {
			if u == v {
				t.Fatalf("self-loop at %d", v)
			}
			if !a.HasEdge(u, v) {
				t.Fatalf("asymmetric edge {%d,%d}", v, u)
			}
		}
	}
	exp := p * float64(n) * float64(n-1) / 2 // ≈ 4498
	if m := float64(a.M()); m < exp/2 || m > 2*exp {
		t.Errorf("edge count %v far from expectation %v", m, exp)
	}
}

func TestGnpAdjacencySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Gnp(60, 0.3, rng)
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if !g.HasEdge(u, v) {
				t.Fatalf("asymmetric adjacency %d-%d", v, u)
			}
		}
	}
	// Edge count should be near p·C(n,2) = 531.
	if g.M() < 350 || g.M() > 720 {
		t.Fatalf("G(60,0.3) edge count %d implausible", g.M())
	}
}

func TestCycleOfCliquesShape(t *testing.T) {
	k, s := 5, 6
	g := CycleOfCliques(k, s)
	if g.N() != k*s {
		t.Fatalf("n=%d", g.N())
	}
	wantM := k*(s*(s-1)/2) + k
	if g.M() != wantM {
		t.Fatalf("m=%d want %d", g.M(), wantM)
	}
	// Connector nodes have degree s+1 (wait: s-1 inside + 2 cycle edges).
	if g.Degree(0) != s+1 {
		t.Fatalf("connector degree %d want %d", g.Degree(0), s+1)
	}
	if g.Degree(1) != s-1 {
		t.Fatalf("inner degree %d want %d", g.Degree(1), s-1)
	}
	if !g.Connected() {
		t.Fatal("disconnected")
	}
}

func TestStarAndPathAndCycle(t *testing.T) {
	s := Star(7)
	if s.Degree(0) != 6 || s.M() != 6 {
		t.Fatal("star shape")
	}
	p := Path(5)
	if p.Diameter() != 4 {
		t.Fatalf("path diameter %d", p.Diameter())
	}
	c := Cycle(8)
	if c.Diameter() != 4 {
		t.Fatalf("cycle diameter %d", c.Diameter())
	}
	for v := 0; v < 8; v++ {
		if c.Degree(v) != 2 {
			t.Fatal("cycle degree")
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := RandomRegular(20, 4, rng)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("node %d degree %d", v, g.Degree(v))
		}
	}
	if g.M() != 40 {
		t.Fatalf("m=%d", g.M())
	}
}

func TestHubAndBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := HubAndBlob(30, 0.2, rng)
	if g.Degree(0) != 29 {
		t.Fatalf("hub degree %d", g.Degree(0))
	}
	if g.MaxDegree() != 29 {
		t.Fatal("hub must be max degree")
	}
}

func TestSubgraph(t *testing.T) {
	g, _ := FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}})
	sub, orig := g.Subgraph(map[int]bool{1: true, 2: true, 3: true})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub n=%d m=%d", sub.N(), sub.M())
	}
	if orig[0] != 1 || orig[2] != 3 {
		t.Fatalf("orig mapping %v", orig)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.Finish()
	if g.Diameter() != -1 {
		t.Fatal("disconnected diameter must be -1")
	}
	if g.Connected() {
		t.Fatal("connected misreport")
	}
}

func TestBarbellLowConductance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := BarbellExpanders(20, 0.5, rng)
	if !g.Connected() {
		t.Fatal("barbell disconnected")
	}
	// Exactly one edge crosses the two halves.
	cross := 0
	for _, e := range g.Edges() {
		if (e.U < 20) != (e.V < 20) {
			cross++
		}
	}
	if cross != 1 {
		t.Fatalf("cross edges %d want 1", cross)
	}
}

func TestColoredGnp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, colors := ColoredGnp(40, 0.3, 5, []float64{10, 1, 1, 1, 1}, rng)
	if len(colors) != g.M() {
		t.Fatalf("colors %d edges %d", len(colors), g.M())
	}
	count1 := 0
	for _, c := range colors {
		if c < 1 || c > 5 {
			t.Fatalf("color %d out of range", c)
		}
		if c == 1 {
			count1++
		}
	}
	if float64(count1) < 0.5*float64(g.M()) {
		t.Fatalf("heavy color underrepresented: %d of %d", count1, g.M())
	}
}

func TestCompleteShape(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		g := Complete(n)
		if g.N() != n || g.M() != n*(n-1)/2 {
			t.Fatalf("Complete(%d): n=%d m=%d", n, g.N(), g.M())
		}
		for v := 0; v < n; v++ {
			nb := g.Neighbors(v)
			if len(nb) != n-1 {
				t.Fatalf("Complete(%d): deg(%d)=%d", n, v, len(nb))
			}
			for p, u := range nb {
				want := p
				if p >= v {
					want = p + 1
				}
				if u != want {
					t.Fatalf("Complete(%d): Neighbors(%d)[%d]=%d, want %d (ascending, skipping self)", n, v, p, u, want)
				}
			}
		}
	}
}

func TestGridShape(t *testing.T) {
	rows, cols := 5, 7
	g := Grid(rows, cols)
	if g.N() != rows*cols {
		t.Fatalf("n=%d", g.N())
	}
	if wantM := rows*(cols-1) + cols*(rows-1); g.M() != wantM {
		t.Fatalf("m=%d want %d", g.M(), wantM)
	}
	if !g.Connected() {
		t.Fatal("grid disconnected")
	}
	// Corner degree 2, edge degree 3, interior degree 4.
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(cols+1) != 4 {
		t.Fatalf("degrees %d %d %d", g.Degree(0), g.Degree(1), g.Degree(cols+1))
	}
	if want := (rows - 1) + (cols - 1); g.Diameter() != want {
		t.Fatalf("diameter %d want %d", g.Diameter(), want)
	}
}

func TestTorusShape(t *testing.T) {
	rows, cols := 4, 6
	g := Torus(rows, cols)
	if g.N() != rows*cols {
		t.Fatalf("n=%d", g.N())
	}
	if wantM := 2 * rows * cols; g.M() != wantM {
		t.Fatalf("m=%d want %d", g.M(), wantM)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("node %d degree %d want 4", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Fatal("torus disconnected")
	}
	if want := rows/2 + cols/2; g.Diameter() != want {
		t.Fatalf("diameter %d want %d", g.Diameter(), want)
	}
}

func TestHypercubeShape(t *testing.T) {
	dim := 5
	g := Hypercube(dim)
	if g.N() != 1<<dim {
		t.Fatalf("n=%d", g.N())
	}
	if wantM := dim * (1 << (dim - 1)); g.M() != wantM {
		t.Fatalf("m=%d want %d", g.M(), wantM)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != dim {
			t.Fatalf("node %d degree %d want %d", v, g.Degree(v), dim)
		}
	}
	if !g.Connected() || g.Diameter() != dim {
		t.Fatalf("connected=%v diameter=%d want %d", g.Connected(), g.Diameter(), dim)
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, attach := 80, 3
	g := BarabasiAlbert(n, attach, rng)
	if g.N() != n {
		t.Fatalf("n=%d", g.N())
	}
	seedM := attach * (attach + 1) / 2
	if wantM := seedM + (n-attach-1)*attach; g.M() != wantM {
		t.Fatalf("m=%d want %d", g.M(), wantM)
	}
	if !g.Connected() {
		t.Fatal("BA graph disconnected")
	}
	// Every non-seed node attaches to `attach` distinct earlier nodes.
	minDeg := g.N()
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d < minDeg {
			minDeg = d
		}
	}
	if minDeg < attach {
		t.Fatalf("min degree %d < attach %d", minDeg, attach)
	}
	// Preferential attachment should concentrate degree well above the
	// regular-graph ceiling.
	if g.MaxDegree() < 3*attach {
		t.Fatalf("max degree %d suspiciously flat for preferential attachment", g.MaxDegree())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(60, 2, rand.New(rand.NewSource(9)))
	b := BarabasiAlbert(60, 2, rand.New(rand.NewSource(9)))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestColorEdges(t *testing.T) {
	g := Grid(4, 4)
	rng := rand.New(rand.NewSource(7))
	colors := ColorEdges(g, 3, nil, rng)
	if len(colors) != g.M() {
		t.Fatalf("colors %d edges %d", len(colors), g.M())
	}
	for _, c := range colors {
		if c < 1 || c > 3 {
			t.Fatalf("color %d out of range", c)
		}
	}
}

// Property: every sampled G(n,p) has sorted, symmetric, self-loop-free
// adjacency and consistent m.
func TestGnpInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw%100) / 100.0
		g := Gnp(n, p, rand.New(rand.NewSource(seed)))
		deg := 0
		for v := 0; v < n; v++ {
			a := g.Neighbors(v)
			deg += len(a)
			for i, u := range a {
				if u == v {
					return false
				}
				if i > 0 && a[i-1] >= u {
					return false
				}
				if !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return deg == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
