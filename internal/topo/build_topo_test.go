package topo

import (
	"math/rand"
	"strings"
	"testing"

	"mucongest/internal/graph"
)

// TestNormalizeSpellings pins the canonical-spelling contract that
// experiment records group by: every way of writing a value renders one
// canonical string, and unparsable values keep their own spelling (and
// still fail at Build with the historical message).
func TestNormalizeSpellings(t *testing.T) {
	cases := []struct{ spec, canon string }{
		{"gnp:p=.5", "gnp:n=48,p=0.5,conn=0"},
		{"gnp:p=0.5", "gnp:n=48,p=0.5,conn=0"},
		{"gnp:p=0.50", "gnp:n=48,p=0.5,conn=0"},
		{"gnp:p=5e-1", "gnp:n=48,p=0.5,conn=0"},
		{"gnp:n=048", "gnp:n=48,p=0.5,conn=0"},
		{"gnp:n=+48", "gnp:n=48,p=0.5,conn=0"},
		{"gnp:conn=true", "gnp:n=48,p=0.5,conn=1"},
		{"gnp:conn=T", "gnp:n=48,p=0.5,conn=1"},
		{"gnp:conn=false", "gnp:n=48,p=0.5,conn=0"},
		{"torus:rows=04,cols=+8", "torus:rows=4,cols=8"},
		{"powerlaw:attach=007", "powerlaw:n=48,attach=7"},
	}
	for _, c := range cases {
		sp, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := sp.String(); got != c.canon {
			t.Errorf("Parse(%q).String() = %q, want %q", c.spec, got, c.canon)
		}
	}
	// Unparsable values pass through verbatim and fail at Build.
	sp := MustParse("gnp:n=many")
	if got := sp.String(); !strings.Contains(got, "n=many") {
		t.Fatalf("unparsable value rewritten: %q", got)
	}
	if _, err := sp.Build(rand.New(rand.NewSource(1))); err == nil ||
		!strings.Contains(err.Error(), `n="many"`) {
		t.Fatalf("Build error = %v, want the n=\"many\" conversion failure", err)
	}
}

// TestEstimateShapes pins exact estimates for the deterministic
// families and the representation choice for every family.
func TestEstimateShapes(t *testing.T) {
	cases := []struct {
		spec string
		repr string
		n    int
		m    int64
	}{
		{"cycle:n=10", "csr", 10, 10},
		{"path:n=10", "csr", 10, 9},
		{"star:n=10", "csr", 10, 9},
		{"cycliques:k=4,size=8", "csr", 32, 4 * (28 + 1)},
		{"regular:n=48,d=8", "csr", 48, 48 * 8 / 2},
		{"powerlaw:n=48,attach=3", "csr", 48, 6 + 44*3},
		{"grid:rows=8,cols=8", "implicit", 64, 8*7 + 8*7},
		{"torus:rows=8,cols=8", "implicit", 64, 128},
		{"hypercube:dim=4", "implicit", 16, 32},
		{"complete:n=9", "implicit", 9, 36},
	}
	for _, c := range cases {
		est, err := MustParse(c.spec).Estimate()
		if err != nil {
			t.Fatalf("Estimate(%q): %v", c.spec, err)
		}
		if est.Repr != c.repr || est.N != c.n || est.M != c.m {
			t.Errorf("Estimate(%q) = %+v, want repr=%s n=%d m=%d", c.spec, est, c.repr, c.n, c.m)
		}
		if c.repr == "csr" {
			if want := graph.CSRBytes(c.n, c.m); est.Bytes != want {
				t.Errorf("Estimate(%q).Bytes = %d, want %d", c.spec, est.Bytes, want)
			}
		} else if est.Bytes > 1024 {
			t.Errorf("Estimate(%q).Bytes = %d for an implicit topology", c.spec, est.Bytes)
		}
	}
	// Exact estimates must match the built graphs.
	for _, spec := range []string{"cycliques:k=4,size=8", "powerlaw:n=48,attach=3", "hypercube:dim=4"} {
		sp := MustParse(spec)
		est, err := sp.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		g, err := sp.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != est.N || int64(g.M()) != est.M {
			t.Errorf("%s: built n=%d m=%d, estimated n=%d m=%d", spec, g.N(), g.M(), est.N, est.M)
		}
	}
}

// TestBuildTopologyMatchesBuild builds every family at its defaults
// through both construction views with equal rng states and requires
// the compact topology to be edge-for-edge identical to the explicit
// graph.
func TestBuildTopologyMatchesBuild(t *testing.T) {
	for _, f := range Families() {
		sp := MustParse(f.Name)
		g, err := sp.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: Build: %v", f.Name, err)
		}
		tp, err := sp.BuildTopology(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: BuildTopology: %v", f.Name, err)
		}
		if tp.N() != g.N() {
			t.Fatalf("%s: topology n=%d, graph n=%d", f.Name, tp.N(), g.N())
		}
		for v := 0; v < g.N(); v++ {
			want := g.Neighbors(v)
			got := tp.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("%s: node %d row length %d, graph %d", f.Name, v, len(got), len(want))
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("%s: node %d port %d: topology %d, graph %d", f.Name, v, p, got[p], want[p])
				}
			}
		}
		est, err := sp.Estimate()
		if err != nil {
			t.Fatalf("%s: Estimate: %v", f.Name, err)
		}
		_, isGraph := tp.(*graph.Graph)
		if (est.Repr == "csr") != isGraph {
			t.Errorf("%s: estimate says %s but BuildTopology returned %T", f.Name, est.Repr, tp)
		}
	}
}

// TestBuildTopologyMillion is the n=1M capability gate from the design
// doc: every registry family (the explicit-only Build caps are exactly
// what BuildTopology lifts) constructs a million-node topology within
// DefaultTopoBudget.
func TestBuildTopologyMillion(t *testing.T) {
	const n = 1 << 20
	specs := []string{
		"gnp:n=1048576,p=0.000004",
		"cycliques:k=65536,size=16",
		"hub:n=1048576,p=0.000004",
		"regular:n=1048576,d=4",
		"star:n=1048576",
		"barbell:size=524288,p=0.00001",
		"path:n=1048576",
		"cycle:n=1048576",
		"grid:rows=1024,cols=1024",
		"torus:rows=1024,cols=1024",
		"hypercube:dim=20",
		"complete:n=1048576",
		"powerlaw:n=1048576,attach=3",
	}
	if len(specs) != len(Families()) {
		t.Fatalf("capability list covers %d families, registry has %d", len(specs), len(Families()))
	}
	for _, spec := range specs {
		sp := MustParse(spec)
		est, err := sp.Estimate()
		if err != nil {
			t.Fatalf("%s: Estimate: %v", spec, err)
		}
		if est.Bytes > DefaultTopoBudget {
			t.Fatalf("%s: estimated %d bytes, over budget", spec, est.Bytes)
		}
		tp, err := sp.BuildTopology(rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("%s: BuildTopology: %v", spec, err)
		}
		if tp.N() < n {
			t.Fatalf("%s: n=%d, want ≥ %d", spec, tp.N(), n)
		}
		if g, ok := tp.(*graph.Graph); ok {
			if b := graph.CSRBytes(g.N(), int64(g.M())); b > DefaultTopoBudget {
				t.Fatalf("%s: built graph is %d bytes, over budget", spec, b)
			}
		}
		// Spot-check the port contract on a few nodes without touching
		// the whole topology.
		for _, v := range []int{0, 1, tp.N() / 2, tp.N() - 1} {
			row := tp.Neighbors(v)
			if len(row) != tp.Degree(v) {
				t.Fatalf("%s: node %d degree %d, row length %d", spec, v, tp.Degree(v), len(row))
			}
			for p, u := range row {
				if tp.NeighborAt(v, p) != u || tp.PortOf(v, u) != p {
					t.Fatalf("%s: node %d port %d inconsistent", spec, v, p)
				}
			}
		}
	}
}

// TestBuildTopologyBudget pins the over-budget failure mode: a clear
// error naming the estimate and budget, never an attempted build.
func TestBuildTopologyBudget(t *testing.T) {
	_, err := MustParse("gnp:n=1000000,p=0.5").BuildTopology(rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "build budget") {
		t.Fatalf("quadratic gnp error = %v, want a budget error", err)
	}
	_, err = MustParse("cycle:n=100000").BuildTopologyBudget(rand.New(rand.NewSource(1)), 1024)
	if err == nil || !strings.Contains(err.Error(), "build budget") {
		t.Fatalf("tiny-budget cycle error = %v, want a budget error", err)
	}
	// Implicit families cost O(1) regardless of n: a tiny budget still
	// admits a ten-million-node complete topology.
	tp, err := MustParse("complete:n=10000000").BuildTopologyBudget(rand.New(rand.NewSource(1)), 128)
	if err != nil || tp.N() != 10000000 {
		t.Fatalf("complete n=10M under 128-byte budget: tp=%v err=%v", tp, err)
	}
	// Parameter validation still beats the budget check.
	if _, err := MustParse("gnp:p=1.5").BuildTopology(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("gnp p=1.5 accepted")
	}
	if _, err := MustParse("hypercube:dim=31").BuildTopology(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("hypercube dim=31 accepted")
	}
}
