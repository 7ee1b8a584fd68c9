// Package topo is the topology registry: every workload-graph family
// the repository knows (G(n,p), cycle-of-cliques, hub, random regular,
// star, barbell, path, cycle, grid, torus, hypercube, power-law) under
// one string name, parameterized and built from a single textual spec
// syntax:
//
//	family:key=value,key=value,...
//
// e.g. "gnp:n=64,p=0.5", "torus:rows=8,cols=8", or a bare "hypercube"
// (every omitted parameter takes its registered default). Parse
// validates a spec against the registry, Spec.Build generates the graph
// deterministically from an *rand.Rand, and Spec.String renders the
// canonical fully-explicit form that experiment records embed, so a
// recorded run names its topology reproducibly.
//
// Spec.BuildTopology builds the most compact representation the family
// supports — the CSR-backed *graph.Graph for generated graphs, O(1)
// implicit arithmetic topologies for grid/torus/hypercube/complete — and
// enforces a memory budget so multi-million-node specs either build
// cheaply or fail with a clear estimate instead of exhausting memory.
// Spec.Estimate reports the representation and projected footprint
// without building anything.
//
// cmd/mugraph, the bench experiment grid (including the muexp -topo
// override), and the examples all construct their graphs through this
// registry.
package topo

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// ParamKind is the declared type of a parameter value; it drives the
// canonical normalization Spec.String and Spec.Values apply, so
// equivalent spellings ("p=.5" and "p=0.5") render identically.
type ParamKind int

const (
	// KindInt is a base-10 integer parameter (the registry default).
	KindInt ParamKind = iota
	// KindFloat is a float64 parameter.
	KindFloat
	// KindBool is a boolean parameter, canonically "1"/"0".
	KindBool
)

// normalize rewrites raw into the canonical spelling of its kind. Values
// that fail to parse keep their original spelling — the typed accessors
// report them with the user's own text at Build time.
func normalize(k ParamKind, raw string) string {
	switch k {
	case KindInt:
		if i, err := strconv.Atoi(raw); err == nil {
			return strconv.Itoa(i)
		}
	case KindFloat:
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			return strconv.FormatFloat(f, 'g', -1, 64)
		}
	case KindBool:
		if b, err := strconv.ParseBool(raw); err == nil {
			if b {
				return "1"
			}
			return "0"
		}
	}
	return raw
}

// Param declares one parameter of a family: its name, default value
// (string form), one-line doc, and value kind.
type Param struct {
	Name    string
	Default string
	Doc     string
	Kind    ParamKind
}

// Family is one registered graph family. Estimate validates the resolved
// parameter values (defaults merged with the spec's explicit arguments)
// and projects the engine topology's footprint; Spec runs it before
// Build or Topo, so those two receive valid values. Build generates the
// graph from the values and the RNG, deterministically in (values,
// rng). Topo, set only for families with an implicit arithmetic
// topology, builds that instead of Build's graph for BuildTopology.
type Family struct {
	Name     string
	Doc      string
	Params   []Param
	Build    func(v *Values, rng *rand.Rand) (*graph.Graph, error)
	Topo     func(v *Values, rng *rand.Rand) (sim.Topology, error)
	Estimate func(v *Values) (Estimate, error)
}

func (f *Family) param(name string) *Param {
	for i := range f.Params {
		if f.Params[i].Name == name {
			return &f.Params[i]
		}
	}
	return nil
}

// Values holds the resolved string parameter values of a spec. The
// typed accessors record the first conversion failure, checked once
// after the family's Estimate — family hooks can read all parameters
// without per-field error plumbing.
type Values struct {
	family string
	m      map[string]string
	err    error
}

func (v *Values) fail(name, kind string) {
	if v.err == nil {
		v.err = fmt.Errorf("topo: %s: parameter %s=%q is not %s",
			v.family, name, v.m[name], kind)
	}
}

// Int returns the named parameter as an int (0 after a recorded error).
func (v *Values) Int(name string) int {
	i, err := strconv.Atoi(v.m[name])
	if err != nil {
		v.fail(name, "an integer")
		return 0
	}
	return i
}

// Float returns the named parameter as a float64.
func (v *Values) Float(name string) float64 {
	f, err := strconv.ParseFloat(v.m[name], 64)
	if err != nil {
		v.fail(name, "a number")
		return 0
	}
	return f
}

// Bool returns the named parameter as a bool ("1"/"true"/"0"/"false").
func (v *Values) Bool(name string) bool {
	b, err := strconv.ParseBool(v.m[name])
	if err != nil {
		v.fail(name, "a boolean")
		return false
	}
	return b
}

// Err returns the first conversion failure, if any.
func (v *Values) Err() error { return v.err }

// Spec is a parsed topology spec: a family name plus the explicitly
// given arguments. The zero Spec is invalid.
type Spec struct {
	Family string
	Args   map[string]string
}

// Parse parses and validates "family" or "family:k=v,k=v,...". The
// family must be registered and every argument key declared by it;
// argument values are validated at Build time (they may need the RNG to
// matter). An empty spec or malformed pair is an error.
func Parse(s string) (Spec, error) {
	name, rest, hasArgs := strings.Cut(s, ":")
	name = strings.TrimSpace(name)
	f := lookup(name)
	if f == nil {
		return Spec{}, fmt.Errorf("topo: unknown family %q (valid: %s)",
			name, strings.Join(FamilyNames(), ", "))
	}
	sp := Spec{Family: f.Name, Args: map[string]string{}}
	if !hasArgs {
		return sp, nil
	}
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" || v == "" {
			return Spec{}, fmt.Errorf("topo: %s: malformed argument %q (want key=value)",
				f.Name, pair)
		}
		if f.param(k) == nil {
			valid := make([]string, len(f.Params))
			for i, p := range f.Params {
				valid[i] = p.Name
			}
			return Spec{}, fmt.Errorf("topo: %s has no parameter %q (valid: %s)",
				f.Name, k, strings.Join(valid, ", "))
		}
		if _, dup := sp.Args[k]; dup {
			return Spec{}, fmt.Errorf("topo: %s: duplicate argument %q", f.Name, k)
		}
		sp.Args[k] = v
	}
	return sp, nil
}

// MustParse is Parse for registry-known-good specs; it panics on error.
func MustParse(s string) Spec {
	sp, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return sp
}

// String renders the canonical fully-explicit spec: every parameter of
// the family in declaration order with its effective (explicit or
// default) value, normalized to the canonical spelling of its declared
// kind ("p=.5", "p=0.50" and "p=0.5" all render as "p=0.5"; booleans
// render "1"/"0"). Equal canonical forms build identical graphs for
// equal seeds, and specs that parse to the same values share one
// canonical form — it is safe to group runs by comparing canonical
// strings. Values that fail to parse keep their original spelling (and
// fail at Build with the same message as before).
func (s Spec) String() string {
	f := lookup(s.Family)
	if f == nil {
		return s.Family
	}
	parts := make([]string, len(f.Params))
	for i, p := range f.Params {
		parts[i] = p.Name + "=" + s.arg(f, p.Name)
	}
	if len(parts) == 0 {
		return f.Name
	}
	return f.Name + ":" + strings.Join(parts, ",")
}

func (s Spec) arg(f *Family, name string) string {
	p := f.param(name)
	if v, ok := s.Args[name]; ok {
		return normalize(p.Kind, v)
	}
	return p.Default
}

// Values resolves the spec's effective parameter values.
func (s Spec) Values() (*Values, error) {
	f := lookup(s.Family)
	if f == nil {
		return nil, fmt.Errorf("topo: unknown family %q", s.Family)
	}
	m := make(map[string]string, len(f.Params))
	for _, p := range f.Params {
		m[p.Name] = s.arg(f, p.Name)
	}
	return &Values{family: f.Name, m: m}, nil
}

// check resolves the spec's family and values and runs the family's
// Estimate, its one parameter check: Build, BuildTopology and Estimate
// all go through here, so an invalid spec fails identically in each.
func (s Spec) check() (*Family, *Values, Estimate, error) {
	f := lookup(s.Family)
	if f == nil {
		return nil, nil, Estimate{}, fmt.Errorf("topo: unknown family %q", s.Family)
	}
	v, err := s.Values()
	if err != nil {
		return nil, nil, Estimate{}, err
	}
	est, err := f.Estimate(v)
	if err == nil {
		err = v.Err()
	}
	if err != nil {
		return nil, nil, Estimate{}, err
	}
	return f, v, est, nil
}

// Build generates the graph described by the spec, drawing any
// randomness from rng. Deterministic: equal canonical specs and equal
// rng states yield identical graphs.
func (s Spec) Build(rng *rand.Rand) (*graph.Graph, error) {
	f, v, _, err := s.check()
	if err != nil {
		return nil, err
	}
	return f.Build(v, rng)
}

// Estimate projects what Spec.BuildTopology would construct: the
// representation, node and edge counts, and the approximate resident
// bytes of the topology itself (excluding the implicit topologies'
// lazily materialized neighbor caches, which scale with the nodes a
// program actually iterates).
type Estimate struct {
	// Repr is "csr" (a *graph.Graph) or "implicit".
	Repr string
	// N and M are node and undirected-edge counts; for random families M
	// is the expectation.
	N int
	M int64
	// Bytes is the projected topology footprint: graph.CSRBytes(N, M)
	// for graph-backed families, a small constant for implicit ones.
	Bytes int64
}

// DefaultTopoBudget is the byte budget Spec.BuildTopology enforces: a
// spec whose estimated footprint exceeds it fails with a clear error
// instead of attempting the build. 4 GiB admits every registry family
// at n = 10M (powerlaw:n=10M,attach=3 is ~560 MB: 8 B per node and
// 16 B per edge, see graph.CSRBytes) while rejecting
// accidental quadratic explosions like gnp:n=1000000,p=0.5.
const DefaultTopoBudget int64 = 4 << 30

// fmtBytes renders a byte count for budget errors.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.1f TiB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Estimate resolves the spec's parameters and projects the compact
// representation BuildTopology would use, without building anything.
func (s Spec) Estimate() (Estimate, error) {
	_, _, est, err := s.check()
	return est, err
}

// BuildTopology builds the most compact engine topology the family
// supports — O(1) implicit arithmetic for grid/torus/hypercube/complete,
// Build's CSR-backed graph for every other family — under
// DefaultTopoBudget. Deterministic in (canonical spec, rng state), and
// edge-for-edge, port-for-port identical to the Build graph for equal
// rng states (the repr tests pin this for the implicit families).
func (s Spec) BuildTopology(rng *rand.Rand) (sim.Topology, error) {
	return s.BuildTopologyBudget(rng, DefaultTopoBudget)
}

// BuildTopologyBudget is BuildTopology with an explicit byte budget
// (≤ 0 means DefaultTopoBudget).
func (s Spec) BuildTopologyBudget(rng *rand.Rand, budget int64) (sim.Topology, error) {
	if budget <= 0 {
		budget = DefaultTopoBudget
	}
	f, v, est, err := s.check()
	if err != nil {
		return nil, err
	}
	if est.Bytes > budget {
		return nil, fmt.Errorf("topo: %s needs ~%s as %s (n=%d, m≈%d), over the %s build budget",
			s, fmtBytes(est.Bytes), est.Repr, est.N, est.M, fmtBytes(budget))
	}
	if f.Topo != nil {
		return f.Topo(v, rng)
	}
	g, err := f.Build(v, rng)
	if err != nil {
		return nil, err // not a typed-nil *graph.Graph in the interface
	}
	return g, nil
}

// csrEstimate is the Estimate of a graph-backed family.
func csrEstimate(n int, m int64) Estimate {
	return Estimate{Repr: "csr", N: n, M: m, Bytes: graph.CSRBytes(n, m)}
}

// implicitEstimate is the Estimate of an implicit arithmetic family:
// the topology itself is a couple of words regardless of n.
func implicitEstimate(n int, m int64) Estimate {
	return Estimate{Repr: "implicit", N: n, M: m, Bytes: 64}
}

// With returns a copy of the spec with one argument overridden.
func (s Spec) With(key, value string) Spec {
	args := make(map[string]string, len(s.Args)+1)
	for k, v := range s.Args {
		args[k] = v
	}
	args[key] = value
	return Spec{Family: s.Family, Args: args}
}

func lookup(name string) *Family {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i]
		}
	}
	return nil
}

// Families returns the registered families sorted by name.
func Families() []Family {
	out := make([]Family, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyNames returns the sorted registered family names.
func FamilyNames() []string {
	fs := Families()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}
