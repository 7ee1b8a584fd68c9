package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Topology describes the communication graph the engine runs on: the
// node count, each node's adjacency list, and port-indexed access to it
// that needs no materialized slice. graph.Graph and the implicit
// families (Complete, Grid, Torus, Hypercube) satisfy it. Adjacency
// lists must be symmetric: u lists v iff v lists u.
type Topology interface {
	// N returns the number of nodes, labeled 0..N-1.
	N() int
	// Neighbors returns the neighbor ids of v. The returned slice must
	// not be modified and must be stable across calls.
	Neighbors(v int) []int
	DegreeTopology
	IndexedTopology
	PortedTopology
}

// DegreeTopology is the degree part of Topology: the degree of a node
// without materializing its adjacency slice, so the engine sets up each
// node in O(1) instead of O(deg).
type DegreeTopology interface {
	Degree(v int) int
}

// IndexedTopology is the port-to-neighbor part of Topology: the
// neighbor id on a given port without materializing the adjacency
// slice. Ports must be consistent with Neighbors: NeighborAt(v, p) ==
// Neighbors(v)[p].
type IndexedTopology interface {
	NeighborAt(v, port int) int
}

// PortedTopology is the neighbor-to-port part of Topology: the port of
// a neighbor id (-1 when not adjacent) without materializing the
// adjacency slice or a per-node port map.
type PortedTopology interface {
	PortOf(v, id int) int
}

// Complete is the all-to-all topology of the μ-Congested-Clique model
// (Section 2.2 of the paper): every pair of nodes shares a communication
// link regardless of the input graph.
//
// The topology is implicit — O(1) memory regardless of n. Node v's
// neighbors are 0..n-1 except v in ascending order, so port p maps to
// neighbor p for p < v and p+1 otherwise; Degree, NeighborAt and PortOf
// answer from arithmetic alone, and the engine never materializes
// adjacency. Neighbors materializes (and caches) a node's slice only
// when a program actually asks for it.
type Complete struct {
	n int
	// nbrs lazily caches materialized neighbor slices; entries are built
	// per requested node so memory stays proportional to the nodes that
	// iterate their neighbor list, and the warm path is lock-free.
	nbrs lazyNbrs
}

// lazyNbrs caches per-node neighbor slices for implicit topologies.
// The cache table is published once (double-checked under mu), entries
// once via CompareAndSwap — so after the first call for a node, every
// reader takes two atomic loads and no lock. Racing first builders may
// duplicate the (identical) build; exactly one slice wins the CAS and
// becomes the canonical stable-across-calls result.
type lazyNbrs struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]atomic.Pointer[[]int]]
}

func (l *lazyNbrs) get(n, v int, build func(int) []int) []int {
	t := l.tab.Load()
	if t == nil {
		l.mu.Lock()
		if t = l.tab.Load(); t == nil {
			nt := make([]atomic.Pointer[[]int], n)
			t = &nt
			l.tab.Store(t)
		}
		l.mu.Unlock()
	}
	e := &(*t)[v]
	if a := e.Load(); a != nil {
		return *a
	}
	a := build(v)
	if !e.CompareAndSwap(nil, &a) {
		return *e.Load()
	}
	return a
}

// NewComplete returns the complete topology on n nodes. Unlike explicit
// graph construction this is O(1) in time and memory.
func NewComplete(n int) *Complete { return &Complete{n: n} }

// N returns the number of nodes.
func (c *Complete) N() int { return c.n }

// Degree returns n-1 for every node.
func (c *Complete) Degree(v int) int { return c.n - 1 }

// NeighborAt returns the neighbor of v on the given port: ports count
// through 0..n-1 skipping v.
func (c *Complete) NeighborAt(v, port int) int {
	if port < 0 || port >= c.n-1 {
		panic(fmt.Sprintf("sim: complete topology has no port %d (degree %d)", port, c.n-1))
	}
	if port < v {
		return port
	}
	return port + 1
}

// PortOf returns the port of node id as seen from v, or -1 when id is v
// or out of range.
func (c *Complete) PortOf(v, id int) int {
	if id == v || id < 0 || id >= c.n {
		return -1
	}
	if id < v {
		return id
	}
	return id - 1
}

// Neighbors returns all nodes other than v in ascending order. The slice
// is materialized lazily and cached per node; callers must not modify
// it. Safe for concurrent use; warm calls are lock-free.
func (c *Complete) Neighbors(v int) []int {
	return c.nbrs.get(c.n, v, func(v int) []int {
		a := make([]int, c.n-1)
		for p := range a {
			if p < v {
				a[p] = p
			} else {
				a[p] = p + 1
			}
		}
		return a
	})
}
