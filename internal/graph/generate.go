package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// The generators in this file draw flat edge-pair lists ([]int32 of
// u0,v0,u1,v1,...) and freeze them with fromPairs. The random cores
// preserve the historical RNG draw sequences exactly — the golden
// determinism digests and every recorded experiment depend on a seed
// reproducing the same graph — except where a generator switches to a
// sparse sampler above gnpDenseLimit, which is documented on the
// generator.

// gnpDenseLimit is the node count up to which G(n,p) sampling draws
// one rng.Float64 per candidate pair (the historical draw sequence).
// Above it, the O(n²) loop is replaced by geometric skip sampling:
// same distribution, O(n + m) time, but a different draw sequence —
// so a seed produces different (equally valid) graphs on either side
// of the limit.
const gnpDenseLimit = 2048

// gnpPairsInto appends a G(n,p) sample over nodes off..off+n-1 to
// pairs. Dense sampling below gnpDenseLimit, skip sampling above.
func gnpPairsInto(pairs []int32, n int, p float64, rng *rand.Rand, off int32) []int32 {
	if n <= gnpDenseLimit {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					pairs = append(pairs, off+int32(u), off+int32(v))
				}
			}
		}
		return pairs
	}
	if p <= 0 {
		return pairs
	}
	// Geometric skip sampling over the linearized pair indices
	// (0,1),(0,2),...,(0,n-1),(1,2),...: the gap to the next sampled
	// pair is geometrically distributed with parameter p.
	total := int64(n) * int64(n-1) / 2
	logq := math.Log1p(-p) // log(1-p) < 0; -Inf when p == 1 (skip 0, take all)
	// cumBefore(a) = pairs in rows < a; row a holds pairs (a, a+1..n-1).
	cumBefore := func(a int64) int64 { return a*int64(n-1) - a*(a-1)/2 }
	for i := int64(-1); ; {
		f := math.Log1p(-rng.Float64()) / logq
		if f >= float64(total-i) { // also guards int64 overflow at tiny p
			break
		}
		i += int64(f) + 1
		if i >= total {
			break
		}
		lo, hi := int64(0), int64(n-2)
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if cumBefore(mid) <= i {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		a := lo
		b := a + 1 + (i - cumBefore(a))
		pairs = append(pairs, off+int32(a), off+int32(b))
	}
	return pairs
}

func gnpPairs(n int, p float64, rng *rand.Rand) []int32 {
	est := int64(p * float64(n) * float64(n-1) / 2)
	return gnpPairsInto(make([]int32, 0, 2*est), n, p, rng, 0)
}

// Gnp samples an Erdős–Rényi random graph G(n,p). The paper's clique
// lower bound (Theorem 1.1) and listing benches use G(n,1/2). Above
// gnpDenseLimit nodes the sampler switches from per-pair draws to
// geometric skip sampling (see gnpPairsInto).
func Gnp(n int, p float64, rng *rand.Rand) *Graph {
	return fromPairs(n, gnpPairs(n, p, rng))
}

// GnpConnected samples G(n,p) graphs until a connected one appears
// (panicking after 1000 attempts, far beyond need for p above the
// connectivity threshold).
func GnpConnected(n int, p float64, rng *rand.Rand) *Graph {
	for i := 0; i < 1000; i++ {
		g := Gnp(n, p, rng)
		if g.Connected() {
			return g
		}
	}
	panic(fmt.Sprintf("graph: could not sample connected G(%d,%g)", n, p))
}

// cycliquesPairs emits the CycleOfCliques edge list.
func cycliquesPairs(k, s int) []int32 {
	if k < 3 || s < 2 {
		panic("graph: CycleOfCliques needs k ≥ 3 cliques of size ≥ 2")
	}
	pairs := make([]int32, 0, 2*k*(s*(s-1)/2+1))
	for i := 0; i < k; i++ {
		base := int32(i * s)
		for a := int32(0); a < int32(s); a++ {
			for b := a + 1; b < int32(s); b++ {
				pairs = append(pairs, base+a, base+b)
			}
		}
		next := int32(((i + 1) % k) * s)
		pairs = append(pairs, base, next)
	}
	return pairs
}

// CycleOfCliques builds the Theorem 1.4 lower-bound instance: k cliques
// of size s connected in a cycle through their 0-th members. The total
// node count is k·s; Δ = s+1 at the connector nodes.
func CycleOfCliques(k, s int) *Graph { return fromPairs(k*s, cycliquesPairs(k, s)) }

func starPairs(n int) []int32 {
	pairs := make([]int32, 0, 2*(n-1))
	for v := int32(1); v < int32(n); v++ {
		pairs = append(pairs, 0, v)
	}
	return pairs
}

// Star builds a star on n nodes with center 0: the extreme max-degree
// topology used for the streaming-simulator workloads.
func Star(n int) *Graph { return fromPairs(n, starPairs(n)) }

// hubPairs emits the hub edges followed by the blob sample; the blob
// draws are identical to a G(n-1,p) over ids shifted by one.
func hubPairs(n int, p float64, rng *rand.Rand) []int32 {
	pairs := make([]int32, 0, 2*(n-1))
	for v := int32(1); v < int32(n); v++ {
		pairs = append(pairs, 0, v)
	}
	return gnpPairsInto(pairs, n-1, p, rng, 1)
}

// HubAndBlob builds a graph with a designated max-degree hub (node 0)
// adjacent to all others, plus a G(n-1, p) graph among the others. The
// p-pass streaming simulation picks the hub as simulator. The blob
// inherits Gnp's sampler switch above gnpDenseLimit nodes.
func HubAndBlob(n int, p float64, rng *rand.Rand) *Graph {
	return fromPairs(n, hubPairs(n, p, rng))
}

// regularPairs runs the pairing model with switch repair and returns
// the flat edge list. The repair keeps pair multiplicities in a map so
// each badness check is O(1) instead of an O(m) scan — the draw
// sequence (shuffle, switch partners) is unchanged, only the scan cost.
func regularPairs(n, d int, rng *rand.Rand) []int32 {
	if n*d%2 != 0 {
		panic("graph: RandomRegular requires n·d even")
	}
	if d >= n {
		panic("graph: RandomRegular requires d < n")
	}
	stubs := make([]int32, 0, n*d)
	for v := int32(0); v < int32(n); v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	type pair struct{ a, b int32 }
	pairs := make([]pair, 0, n*d/2)
	key := func(p pair) uint64 {
		a, b := p.a, p.b
		if a > b {
			a, b = b, a
		}
		return uint64(uint32(a))<<32 | uint64(uint32(b))
	}
	cnt := make(map[uint64]int, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		p := pair{stubs[i], stubs[i+1]}
		pairs = append(pairs, p)
		cnt[key(p)]++
	}
	bad := func(p pair) bool { return p.a == p.b || cnt[key(p)] > 1 }
	for guard := 0; guard < 200*n*d; guard++ {
		i := -1
		for j, p := range pairs {
			if bad(p) {
				i = j
				break
			}
		}
		if i < 0 {
			out := make([]int32, 0, 2*len(pairs))
			for _, p := range pairs {
				out = append(out, p.a, p.b)
			}
			return out
		}
		j := rng.Intn(len(pairs))
		if j == i {
			continue
		}
		pi, pj := pairs[i], pairs[j]
		cnt[key(pi)]--
		cnt[key(pj)]--
		pairs[i], pairs[j] = pair{pi.a, pj.b}, pair{pj.a, pi.b}
		cnt[key(pairs[i])]++
		cnt[key(pairs[j])]++
	}
	panic("graph: RandomRegular switch repair did not converge")
}

// RandomRegular samples a d-regular graph on n nodes via the pairing
// model followed by random edge-switch repair of self-loops and
// multi-edges (rejection alone is hopeless beyond small d). n·d must
// be even and d < n.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	return fromPairs(n, regularPairs(n, d, rng))
}

func pathPairs(n int) []int32 {
	pairs := make([]int32, 0, 2*(n-1))
	for v := int32(0); v+1 < int32(n); v++ {
		pairs = append(pairs, v, v+1)
	}
	return pairs
}

// Path builds the n-node path 0-1-...-(n-1); the extreme-diameter
// topology for aggregation tests.
func Path(n int) *Graph { return fromPairs(n, pathPairs(n)) }

// Complete builds the complete graph K_n with explicit adjacency:
// O(n²) memory, intended for workload-graph scales. Engine-scale
// all-to-all topologies should use the implicit sim.NewComplete, which
// is O(1).
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	g.Finish()
	return g
}

func cyclePairs(n int) []int32 {
	if n < 3 {
		panic("graph: Cycle needs n ≥ 3")
	}
	pairs := make([]int32, 0, 2*n)
	for v := 0; v < n; v++ {
		pairs = append(pairs, int32(v), int32((v+1)%n))
	}
	return pairs
}

// Cycle builds the n-node cycle.
func Cycle(n int) *Graph { return fromPairs(n, cyclePairs(n)) }

// barbellPairs draws both blobs. Up to gnpDenseLimit nodes per blob the
// two blobs' per-pair draws interleave (the historical sequence); above
// it each blob is skip-sampled in turn.
func barbellPairs(s int, p float64, rng *rand.Rand) []int32 {
	var pairs []int32
	if s <= gnpDenseLimit {
		for u := int32(0); u < int32(s); u++ {
			for v := u + 1; v < int32(s); v++ {
				if rng.Float64() < p {
					pairs = append(pairs, u, v)
				}
				if rng.Float64() < p {
					pairs = append(pairs, int32(s)+u, int32(s)+v)
				}
			}
		}
	} else {
		pairs = gnpPairsInto(pairs, s, p, rng, 0)
		pairs = gnpPairsInto(pairs, s, p, rng, int32(s))
	}
	return append(pairs, 0, int32(s))
}

// BarbellExpanders joins two G(s, p) blobs by a single bridge edge:
// a standard low-conductance instance for expander-decomposition tests.
func BarbellExpanders(s int, p float64, rng *rand.Rand) *Graph {
	return fromPairs(2*s, barbellPairs(s, p, rng))
}

// Grid builds the rows×cols grid graph: node (r,c) has id r·cols+c and
// is adjacent to its horizontal and vertical neighbors. A moderate-
// diameter, bounded-degree topology for aggregation workloads.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: Grid needs rows, cols ≥ 1")
	}
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				g.AddEdge(v, v+1)
			}
			if r+1 < rows {
				g.AddEdge(v, v+cols)
			}
		}
	}
	g.Finish()
	return g
}

// Torus builds the rows×cols grid with wraparound edges in both
// dimensions: every node has degree exactly 4. Both dimensions must be
// at least 3, else the wrap edges would duplicate grid edges or form
// self-loops.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus needs rows, cols ≥ 3")
	}
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			g.AddEdge(v, r*cols+(c+1)%cols)
			g.AddEdge(v, ((r+1)%rows)*cols+c)
		}
	}
	g.Finish()
	return g
}

// Hypercube builds the dim-dimensional hypercube on 2^dim nodes: ids
// are adjacent iff they differ in exactly one bit. Diameter and degree
// are both dim — the classic logarithmic-diameter interconnect.
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 20 {
		panic("graph: Hypercube needs 1 ≤ dim ≤ 20")
	}
	n := 1 << dim
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < dim; b++ {
			u := v ^ (1 << b)
			if v < u {
				g.AddEdge(v, u)
			}
		}
	}
	g.Finish()
	return g
}

// baPairs draws the preferential-attachment edge list into flat
// arrays: the degree-proportional target pool and the per-node pick
// set are plain int32 slices (the pick set is kept sorted by
// insertion), no per-node map or sort. The draw sequence — one
// rng.Intn per candidate, retried on duplicates, picks applied in
// ascending order — is bit-identical to the historical map-based
// implementation, so seeds reproduce the same graphs.
func baPairs(n, attach int, rng *rand.Rand) []int32 {
	if attach < 1 || n <= attach {
		panic("graph: BarabasiAlbert needs n > attach ≥ 1")
	}
	m := attach*(attach+1)/2 + (n-attach-1)*attach
	pairs := make([]int32, 0, 2*m)
	// targets holds one entry per edge endpoint, so sampling an element
	// uniformly is degree-proportional sampling.
	targets := make([]int32, 0, 2*m)
	for u := int32(0); u <= int32(attach); u++ {
		for v := u + 1; v <= int32(attach); v++ {
			pairs = append(pairs, u, v)
			targets = append(targets, u, v)
		}
	}
	picks := make([]int32, 0, attach)
	for v := int32(attach + 1); v < int32(n); v++ {
		picks = picks[:0]
		for len(picks) < attach {
			u := targets[rng.Intn(len(targets))]
			// Sorted insertion keeps the pick set ordered as it grows, so
			// the appends below happen in ascending order — the order of
			// the appends shifts every later rng.Intn index, so it must
			// depend only on the seed. attach is small; linear is fine.
			i := 0
			for i < len(picks) && picks[i] < u {
				i++
			}
			if i < len(picks) && picks[i] == u {
				continue
			}
			picks = append(picks, 0)
			copy(picks[i+1:], picks[i:])
			picks[i] = u
		}
		for _, u := range picks {
			pairs = append(pairs, v, u)
			targets = append(targets, v, u)
		}
	}
	return pairs
}

// BarabasiAlbert samples a preferential-attachment (power-law degree)
// graph: starting from a complete seed on attach+1 nodes, each new node
// connects to attach distinct existing nodes chosen proportionally to
// their current degree. Requires n > attach ≥ 1. The result is always
// connected.
func BarabasiAlbert(n, attach int, rng *rand.Rand) *Graph {
	return fromPairs(n, baPairs(n, attach, rng))
}

// ColorEdges assigns each edge of g a color in [1,c] according to
// weights (nil means uniform), returning the edge→color map that the
// monochromatic-triangle statistics (§1.2.2) consume.
func ColorEdges(g *Graph, c int, weights []float64, rng *rand.Rand) map[[2]int]int64 {
	colors := make(map[[2]int]int64, g.M())
	var cum []float64
	if weights != nil {
		if len(weights) != c {
			panic("graph: ColorEdges weights length must equal c")
		}
		cum = make([]float64, c)
		s := 0.0
		for i, w := range weights {
			s += w
			cum[i] = s
		}
		for i := range cum {
			cum[i] /= s
		}
	}
	for _, e := range g.Edges() {
		var col int64
		if cum == nil {
			col = int64(rng.Intn(c)) + 1
		} else {
			x := rng.Float64()
			lo := 0
			for lo < c-1 && cum[lo] < x {
				lo++
			}
			col = int64(lo) + 1
		}
		colors[[2]int{e.U, e.V}] = col
	}
	return colors
}

// ColoredGnp samples G(n,p) and colors its edges via ColorEdges. It
// returns the graph and the edge→color map, the input for
// monochromatic-triangle statistics (§1.2.2).
func ColoredGnp(n int, p float64, c int, weights []float64, rng *rand.Rand) (*Graph, map[[2]int]int64) {
	g := Gnp(n, p, rng)
	return g, ColorEdges(g, c, weights, rng)
}
