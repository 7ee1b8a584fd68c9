package topo

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCanonicalRoundTrip pins the spec syntax contract: for every
// family, the bare name parses, its canonical String re-parses to the
// same canonical form, and explicit arguments survive the round trip.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, f := range Families() {
		sp, err := Parse(f.Name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", f.Name, err)
		}
		canon := sp.String()
		// Canonical form names every declared parameter.
		for _, p := range f.Params {
			if !strings.Contains(canon, p.Name+"=") {
				t.Fatalf("%s: canonical %q omits parameter %s", f.Name, canon, p.Name)
			}
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(canonical %q): %v", canon, err)
		}
		if again.String() != canon {
			t.Fatalf("%s: canonical form unstable: %q -> %q", f.Name, canon, again.String())
		}
	}
}

func TestParseExplicitArgs(t *testing.T) {
	sp, err := Parse("torus: rows=4 , cols=5")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Args["rows"] != "4" || sp.Args["cols"] != "5" {
		t.Fatalf("args %v", sp.Args)
	}
	if got, want := sp.String(), "torus:rows=4,cols=5"; got != want {
		t.Fatalf("String %q want %q", got, want)
	}
	// Partial args keep defaults for the rest.
	sp = MustParse("gnp:p=0.3")
	if got, want := sp.String(), "gnp:n=48,p=0.3,conn=0"; got != want {
		t.Fatalf("String %q want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"", "unknown family"},
		{"mobius", "unknown family"},
		{"mobius:n=4", "unknown family"},
		{"torus:rows", "malformed argument"},
		{"torus:rows=", "malformed argument"},
		{"torus:=4", "malformed argument"},
		{"torus:sides=4", "no parameter"},
		{"torus:rows=4,rows=5", "duplicate argument"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil {
			t.Fatalf("Parse(%q) accepted", c.spec)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("Parse(%q) error %q, want substring %q", c.spec, err, c.wantSub)
		}
	}
}

// TestBuildValueErrors pins Build-time rejection of invalid values. A
// spec that fails its family's parameter check must get the identical
// error from Build, BuildTopology and Estimate; only the explicit-only
// caps (hypercube dim > 20, complete n > 2048) fail Build alone.
func TestBuildValueErrors(t *testing.T) {
	cases := []string{
		"gnp:n=many",     // non-integer
		"gnp:p=half",     // non-number
		"gnp:conn=maybe", // non-boolean
		"gnp:p=1.5",      // out of range
		"gnp:n=0",        // out of range
		"gnp:n=4,p=0,conn=1",
		"cycliques:k=2",
		"cycliques:size=1",
		"hub:n=1",
		"hub:p=-0.1",
		"regular:n=5,d=3", // n·d odd
		"regular:n=4,d=4", // d ≥ n
		"star:n=1",
		"barbell:size=0",
		"barbell:p=2",
		"path:n=0",
		"grid:rows=0",
		"grid:cols=x",
		"torus:rows=2",
		"hypercube:dim=0",
		"hypercube:dim=31",
		"hypercube:dim=21", // beyond the explicit-adjacency cap
		"powerlaw:n=3,attach=3",
		"powerlaw:attach=0",
		"cycle:n=2",
		"complete:n=0",    // out of range
		"complete:n=4096", // beyond the explicit-adjacency cap
	}
	covered := map[string]bool{}
	for _, c := range cases {
		sp, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v (expected a Build-time error)", c, err)
		}
		_, buildErr := sp.Build(rand.New(rand.NewSource(1)))
		if buildErr == nil {
			t.Fatalf("Build(%q) accepted", c)
		}
		_, estErr := sp.Estimate()
		if estErr == nil {
			continue // an explicit-only cap
		}
		covered[sp.Family] = true
		_, topoErr := sp.BuildTopology(rand.New(rand.NewSource(1)))
		if buildErr.Error() != estErr.Error() || topoErr == nil || topoErr.Error() != estErr.Error() {
			t.Errorf("%q: Estimate error %q, Build %q, BuildTopology %v", c, estErr, buildErr, topoErr)
		}
	}
	for _, f := range FamilyNames() {
		if !covered[f] {
			t.Errorf("no invalid spec for family %q", f)
		}
	}
}

// TestBuildEveryFamilyDefault builds every family at its defaults: no
// errors, correct node counts, deterministic for a fixed seed.
func TestBuildEveryFamilyDefault(t *testing.T) {
	for _, f := range Families() {
		sp := MustParse(f.Name)
		g, err := sp.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if g.N() < 1 {
			t.Fatalf("%s: empty graph", f.Name)
		}
		h, err := sp.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		ge, he := g.Edges(), h.Edges()
		if len(ge) != len(he) {
			t.Fatalf("%s: nondeterministic edge count %d vs %d", f.Name, len(ge), len(he))
		}
		for i := range ge {
			if ge[i] != he[i] {
				t.Fatalf("%s: nondeterministic edge %d: %v vs %v", f.Name, i, ge[i], he[i])
			}
		}
	}
}

func TestBuildShapes(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(5)) }
	g, err := MustParse("grid:rows=3,cols=4").Build(rng())
	if err != nil || g.N() != 12 || g.M() != 3*3+4*2 {
		t.Fatalf("grid: n=%d m=%d err=%v", g.N(), g.M(), err)
	}
	g, err = MustParse("torus:rows=3,cols=3").Build(rng())
	if err != nil || g.N() != 9 || g.M() != 18 || g.MaxDegree() != 4 {
		t.Fatalf("torus: n=%d m=%d Δ=%d err=%v", g.N(), g.M(), g.MaxDegree(), err)
	}
	g, err = MustParse("hypercube:dim=4").Build(rng())
	if err != nil || g.N() != 16 || g.M() != 32 || g.Diameter() != 4 {
		t.Fatalf("hypercube: n=%d m=%d D=%d err=%v", g.N(), g.M(), g.Diameter(), err)
	}
	g, err = MustParse("powerlaw:n=40,attach=2").Build(rng())
	if err != nil || g.N() != 40 || !g.Connected() {
		t.Fatalf("powerlaw: n=%d connected=%v err=%v", g.N(), g.Connected(), err)
	}
	g, err = MustParse("gnp:n=30,p=0.2,conn=1").Build(rng())
	if err != nil || !g.Connected() {
		t.Fatalf("gnp conn: connected=%v err=%v", g.Connected(), err)
	}
	g, err = MustParse("complete:n=9").Build(rng())
	if err != nil || g.N() != 9 || g.M() != 9*8/2 || g.MaxDegree() != 8 || g.Diameter() != 1 {
		t.Fatalf("complete: n=%d m=%d Δ=%d err=%v", g.N(), g.M(), g.MaxDegree(), err)
	}
}

func TestWithOverride(t *testing.T) {
	base := MustParse("gnp:n=30")
	over := base.With("p", "0.1")
	if base.Args["p"] != "" || over.Args["p"] != "0.1" || over.Args["n"] != "30" {
		t.Fatalf("With mutated base or dropped args: base=%v over=%v", base.Args, over.Args)
	}
}

func TestFamilyNamesSortedAndComplete(t *testing.T) {
	names := FamilyNames()
	want := []string{"barbell", "complete", "cycle", "cycliques", "gnp", "grid",
		"hub", "hypercube", "path", "powerlaw", "regular", "star", "torus"}
	if len(names) != len(want) {
		t.Fatalf("families %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("families %v, want %v", names, want)
		}
	}
}
