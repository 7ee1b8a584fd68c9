package topo

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// FuzzTopoParse pins the registry's parsing contract: Parse never
// panics (malformed specs must return errors), and any spec that
// parses round-trips through its canonical String() form — the
// property experiment records rely on when they embed a spec and later
// rebuild the graph from it. Equivalent spellings of the same value
// ("p=.5", "p=0.50", "conn=true") must canonicalize to the same string,
// so grouping runs by canonical spec is sound.
//
// A spec that parses but fails its family's parameter check must get
// the identical error from Estimate, Build and BuildTopology (the check
// runs before anything is built, so the fuzzer never builds a graph).
//
// The seed corpus covers every registered family three ways: the bare
// name, the canonical fully-explicit form, and a single-argument form —
// plus a spread of malformed inputs that must error cleanly.
func FuzzTopoParse(f *testing.F) {
	for _, fam := range FamilyNames() {
		f.Add(fam)
		f.Add(MustParse(fam).String())
		ps := lookup(fam).Params
		if len(ps) > 0 {
			f.Add(fam + ":" + ps[0].Name + "=" + ps[0].Default)
		}
	}
	for _, bad := range []string{
		"", ":", "nope", "nope:n=4", "gnp:", "gnp:n", "gnp:n=", "gnp:=4",
		"gnp:n=4,n=4", "gnp:q=4", "torus:rows=,", "cycle:n=four",
		"grid:rows=3,cols", "  ", "gnp:n==5", "cycle:n=-1", "powerlaw:n=1,attach=9",
		"hypercube:dim=99", "gnp:p=7", "regular:n=7,d=3",
	} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			if !strings.Contains(err.Error(), "topo:") {
				t.Errorf("Parse(%q) error lacks package prefix: %v", s, err)
			}
			return
		}
		canon := sp.String()
		sp2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q failed to re-parse: %v", canon, s, err)
		}
		if got := sp2.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q (from %q)", canon, got, s)
		}
		if sp2.Family != sp.Family {
			t.Fatalf("family changed across round-trip: %q -> %q", sp.Family, sp2.Family)
		}
		if _, estErr := sp.Estimate(); estErr != nil {
			_, buildErr := sp.Build(rand.New(rand.NewSource(1)))
			_, topoErr := sp.BuildTopology(rand.New(rand.NewSource(1)))
			if buildErr == nil || buildErr.Error() != estErr.Error() ||
				topoErr == nil || topoErr.Error() != estErr.Error() {
				t.Fatalf("%q: Estimate error %q, Build %v, BuildTopology %v", s, estErr, buildErr, topoErr)
			}
		}
		// Equivalent spellings of every explicitly-given parameter must
		// canonicalize to the same string as the original spec.
		fam := lookup(sp.Family)
		for _, p := range fam.Params {
			raw, ok := sp.Args[p.Name]
			if !ok {
				continue
			}
			var alts []string
			switch p.Kind {
			case KindInt:
				if i, err := strconv.Atoi(raw); err == nil {
					if i >= 0 {
						alts = append(alts, "+"+strconv.Itoa(i), "0"+strconv.Itoa(i), "00"+strconv.Itoa(i))
					} else {
						alts = append(alts, "-0"+strconv.Itoa(-i))
					}
				}
			case KindFloat:
				if x, err := strconv.ParseFloat(raw, 64); err == nil && !math.IsNaN(x) && !math.IsInf(x, 0) {
					c := strconv.FormatFloat(x, 'g', -1, 64)
					if strings.Contains(c, ".") && !strings.ContainsAny(c, "eE") {
						alts = append(alts, c+"0") // trailing zero
						if strings.HasPrefix(c, "0.") {
							alts = append(alts, c[1:]) // ".5" for "0.5"
						}
						if strings.HasPrefix(c, "-0.") {
							alts = append(alts, "-"+c[2:])
						}
					}
					if !strings.HasPrefix(c, "-") {
						alts = append(alts, "+"+c)
					}
				}
			case KindBool:
				if b, err := strconv.ParseBool(raw); err == nil {
					if b {
						alts = append(alts, "true", "t", "T", "TRUE")
					} else {
						alts = append(alts, "false", "f", "F", "FALSE")
					}
				}
			}
			for _, alt := range alts {
				if got := sp.With(p.Name, alt).String(); got != canon {
					t.Errorf("equivalent spelling %s=%q of %q canonicalizes to %q, want %q",
						p.Name, alt, s, got, canon)
				}
			}
		}
	})
}
