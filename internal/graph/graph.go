// Package graph provides the undirected-graph type used as both input
// graph and communication topology throughout the repository, plus the
// workload generators the paper's experiments need (G(n,p), the
// cycle-of-cliques lower-bound instance of Theorem 1.4, random regular
// graphs, colored graphs for monochromatic-triangle statistics, ...).
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected edge {U, V} with U < V, optionally labeled.
type Edge struct {
	U, V  int
	Label int64
}

// Graph is a simple undirected graph on nodes 0..N-1 in compressed
// sparse row (CSR) layout: one flat neighbor array plus one offset
// array, nothing per node. Rows are sorted ascending, so a neighbor's
// index in its row is its port. Graph implements sim.Topology, whose
// port methods Degree, NeighborAt and PortOf it answers from the CSR
// arrays.
//
// A graph from New is a builder: AddEdge collects edge pairs and
// Finish freezes them; reading it before Finish panics. FromEdges,
// Subgraph and the generators return finished graphs. Node ids are
// limited to 0 ≤ n ≤ 2^31-1, far beyond the 1M–10M node target.
type Graph struct {
	n       int
	offsets []int   // len n+1 once finished; row v is adj[offsets[v]:offsets[v+1]]
	adj     []int   // both directions of every edge, so m = len(adj)/2
	pending []int32 // edge pairs u0,v0,u1,v1,... collected by AddEdge until Finish
}

// checkN panics unless n is a supported node count.
func checkN(n int) {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: supports 0 ≤ n ≤ %d nodes, got %d", math.MaxInt32, n))
	}
}

// New returns an empty graph builder on n nodes. Add edges with
// AddEdge, then call Finish before reading the graph.
func New(n int) *Graph {
	checkN(n)
	return &Graph{n: n}
}

// fromPairs builds a finished graph on n nodes from a flat undirected
// edge list (u0,v0,u1,v1,...). The input is trusted: no self-loops, no
// duplicate edges, every id in [0,n). All generators in this package
// emit such lists.
func fromPairs(n int, pairs []int32) *Graph {
	checkN(n)
	g := &Graph{n: n}
	g.freeze(pairs)
	return g
}

// freeze lays pairs out as g's sorted CSR rows by counting sort.
func (g *Graph) freeze(pairs []int32) {
	n := g.n
	g.offsets, g.adj = make([]int, n+1), make([]int, len(pairs))
	off := g.offsets
	for _, v := range pairs {
		off[v+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	// Place both directions of every edge using off[v] as row v's write
	// cursor; afterwards off[v] is the end of row v, so shifting the
	// array right by one restores the row starts without a cursor copy.
	for i := 0; i < len(pairs); i += 2 {
		u, v := pairs[i], pairs[i+1]
		g.adj[off[u]] = int(v)
		off[u]++
		g.adj[off[v]] = int(u)
		off[v]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	for v := 0; v < n; v++ {
		slices.Sort(g.adj[off[v]:off[v+1]])
	}
}

// FromEdges builds a graph on n nodes from an edge list. Duplicate and
// self-loop edges are rejected.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	pairs := make([]int32, 0, 2*len(edges))
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		if seen[[2]int{u, v}] {
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		}
		seen[[2]int{u, v}] = true
		pairs = append(pairs, int32(u), int32(v))
	}
	return fromPairs(n, pairs), nil
}

// AddEdge records the undirected edge {u,v} on a New builder. It does
// not check for duplicates; use FromEdges for validated construction.
// Call Finish after the last AddEdge.
func (g *Graph) AddEdge(u, v int) {
	if g.offsets != nil {
		panic("graph: AddEdge after Finish")
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	g.pending = append(g.pending, int32(u), int32(v))
}

// Finish freezes the edges recorded by AddEdge into the sorted CSR
// layout. Later calls are no-ops.
func (g *Graph) Finish() {
	if g.offsets == nil {
		g.freeze(g.pending)
		g.pending = nil
	}
}

// errUnfinished is the panic for reading a New builder before Finish.
const errUnfinished = "graph: Graph read before Finish (call Finish after the last AddEdge)"

// row returns v's sorted neighbor row.
func (g *Graph) row(v int) []int {
	if g.offsets == nil {
		panic(errUnfinished)
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the edge count.
func (g *Graph) M() int {
	if g.offsets == nil {
		panic(errUnfinished)
	}
	return len(g.adj) / 2
}

// Neighbors returns v's sorted neighbor list as a view into the flat
// adjacency array: no copy, no allocation. The slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.row(v) }

// Degree returns deg(v).
func (g *Graph) Degree(v int) int { return len(g.row(v)) }

// NeighborAt returns v's neighbor on the given port (its index in the
// ascending neighbor row).
func (g *Graph) NeighborAt(v, port int) int {
	r := g.row(v)
	if port < 0 || port >= len(r) {
		panic(fmt.Sprintf("graph: node %d has no port %d (degree %d)", v, port, len(r)))
	}
	return r[port]
}

// PortOf returns the port of neighbor id as seen from v via binary
// search over v's row, or -1 when not adjacent.
func (g *Graph) PortOf(v, id int) int {
	i, ok := slices.BinarySearch(g.row(v), id)
	if !ok {
		return -1
	}
	return i
}

// HasEdge reports whether {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool { return g.PortOf(u, v) >= 0 }

// MaxDegree returns Δ.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		d = max(d, g.Degree(v))
	}
	return d
}

// AvgDegree returns 2m/n.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.n)
}

// CSRBytes is the memory model of a finished Graph, used by the topo
// registry's build budget: offsets (8 B per node, plus one) and both
// directions of every edge (8 B each).
func CSRBytes(n int, m int64) int64 { return 8*(int64(n)+1) + 16*m }

// Edges returns all edges with U < V in lexicographic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.row(u) {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// Diameter returns the eccentricity maximum over all nodes via repeated
// BFS, or -1 if the graph is disconnected. O(n·m); intended for test and
// workload sizes.
func (g *Graph) Diameter() int {
	diam := 0
	dist := make([]int, g.n)
	queue := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		seen := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.row(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					if dist[u] > diam {
						diam = dist[u]
					}
					queue = append(queue, u)
					seen++
				}
			}
		}
		if seen < g.n {
			return -1
		}
	}
	return diam
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.row(v) {
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == g.n
}

// Subgraph returns the induced subgraph on keep (given as a node set),
// along with the mapping from new ids to original ids.
func (g *Graph) Subgraph(keep map[int]bool) (*Graph, []int) {
	orig := make([]int, 0, len(keep))
	for v := 0; v < g.n; v++ {
		if keep[v] {
			orig = append(orig, v)
		}
	}
	newID := make(map[int]int, len(orig))
	for i, v := range orig {
		newID[v] = i
	}
	var pairs []int32
	for i, v := range orig {
		for _, u := range g.row(v) {
			if j, ok := newID[u]; ok && i < j {
				pairs = append(pairs, int32(i), int32(j))
			}
		}
	}
	return fromPairs(len(orig), pairs), orig
}
