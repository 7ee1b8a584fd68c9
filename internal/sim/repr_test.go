package sim

import (
	"sync"
	"testing"

	"mucongest/internal/graph"
)

// This file pins the topology-representation contract: the implicit
// arithmetic topologies must be edge-for-edge, port-for-port
// interchangeable with graph.Graph — the historical golden digests
// reproduce bit-for-bit on every representation, in both execution
// modes, for every inbox order.

// implicitCases pairs each implicit topology with its explicit twin.
func implicitCases() []struct {
	name     string
	implicit Topology
	explicit *graph.Graph
} {
	return []struct {
		name     string
		implicit Topology
		explicit *graph.Graph
	}{
		{"grid5x7", NewGrid(5, 7), graph.Grid(5, 7)},
		{"grid1x9", NewGrid(1, 9), graph.Grid(1, 9)},
		{"grid9x1", NewGrid(9, 1), graph.Grid(9, 1)},
		{"grid2x2", NewGrid(2, 2), graph.Grid(2, 2)},
		{"torus3x3", NewTorus(3, 3), graph.Torus(3, 3)},
		{"torus4x5", NewTorus(4, 5), graph.Torus(4, 5)},
		{"hypercube1", NewHypercube(1), graph.Hypercube(1)},
		{"hypercube4", NewHypercube(4), graph.Hypercube(4)},
		{"hypercube7", NewHypercube(7), graph.Hypercube(7)},
	}
}

// TestImplicitShapeMatchesExplicit proves each implicit family is
// edge-for-edge and port-for-port identical to the explicit graph at
// small n: N, Degree, Neighbors (in order), NeighborAt and PortOf.
func TestImplicitShapeMatchesExplicit(t *testing.T) {
	for _, tc := range implicitCases() {
		g := tc.explicit
		if tc.implicit.N() != g.N() {
			t.Fatalf("%s: n = %d, explicit %d", tc.name, tc.implicit.N(), g.N())
		}
		for v := 0; v < g.N(); v++ {
			want := g.Neighbors(v)
			if d := tc.implicit.Degree(v); d != len(want) {
				t.Fatalf("%s: node %d degree %d, explicit %d", tc.name, v, d, len(want))
			}
			got := tc.implicit.Neighbors(v)
			if len(got) != len(want) {
				t.Fatalf("%s: node %d row length %d, explicit %d", tc.name, v, len(got), len(want))
			}
			for p, u := range want {
				if got[p] != u {
					t.Fatalf("%s: node %d port %d: implicit %d, explicit %d", tc.name, v, p, got[p], u)
				}
				if n := tc.implicit.NeighborAt(v, p); n != u {
					t.Fatalf("%s: NeighborAt(%d,%d) = %d, want %d", tc.name, v, p, n, u)
				}
				if n := tc.implicit.PortOf(v, u); n != p {
					t.Fatalf("%s: PortOf(%d,%d) = %d, want %d", tc.name, v, u, n, p)
				}
			}
			if tc.implicit.PortOf(v, v) != -1 {
				t.Fatalf("%s: PortOf(%d,%d) should be -1", tc.name, v, v)
			}
		}
	}
}

// TestImplicitMatchesExplicitDigests runs the deterministic golden
// program on both representations of each implicit family — every
// inbox order, both execution modes, workers 1 and 2 — and requires
// bit-identical result digests. This is the digest-level counterpart
// of the shape test: if it passes, the engine cannot distinguish the
// representations.
func TestImplicitMatchesExplicitDigests(t *testing.T) {
	for _, tc := range implicitCases() {
		for order := OrderBySender; order <= OrderReversed; order++ {
			for _, w := range []int{1, 2} {
				opts := func() []Option {
					return []Option{WithSeed(11), WithInboxOrder(order), WithSimWorkers(w)}
				}
				eRes, err := New(tc.explicit, opts()...).Run(detProgram)
				if err != nil {
					t.Fatal(err)
				}
				iRes, err := New(tc.implicit, opts()...).Run(detProgram)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := digestResult(eRes), digestResult(iRes); a != b {
					t.Errorf("%s order %v workers %d: explicit digest %#x, implicit %#x", tc.name, order, w, a, b)
				}
				iStep, err := New(tc.implicit, opts()...).RunProgram(detSteps)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := digestResult(eRes), digestResult(iStep); a != b {
					t.Errorf("%s step mode order %v workers %d: explicit digest %#x, implicit %#x", tc.name, order, w, a, b)
				}
			}
		}
	}
}

// TestCompleteNeighborsParallel hammers the lazily cached Complete
// neighbor lists from many goroutines (run under -race in CI): the
// warm path is lock-free, every call must return the one canonical
// slice for its node.
func TestCompleteNeighborsParallel(t *testing.T) {
	c := NewComplete(300)
	first := make([][]int, c.N())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; v < c.N(); v++ {
				a := c.Neighbors(v)
				if len(a) != c.N()-1 {
					t.Errorf("node %d: %d neighbors, want %d", v, len(a), c.N()-1)
					return
				}
				for p, u := range a {
					if u != c.NeighborAt(v, p) {
						t.Errorf("node %d port %d: cached %d, arithmetic %d", v, p, u, c.NeighborAt(v, p))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Stability: repeated calls return the same canonical slice.
	for v := 0; v < c.N(); v++ {
		first[v] = c.Neighbors(v)
	}
	for v := 0; v < c.N(); v++ {
		if again := c.Neighbors(v); &again[0] != &first[v][0] {
			t.Fatalf("node %d: Neighbors returned a different slice across calls", v)
		}
	}
}

// BenchmarkCompleteNeighborsWarm times the warm (cached) Neighbors
// path: before the lock-free rework every call took a global mutex;
// now it is two atomic loads.
func BenchmarkCompleteNeighborsWarm(b *testing.B) {
	c := NewComplete(1024)
	for v := 0; v < c.N(); v++ {
		c.Neighbors(v) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := 0
		for pb.Next() {
			if len(c.Neighbors(v)) != 1023 {
				b.Fatal("bad neighbor count")
			}
			v = (v + 1) & 1023
		}
	})
}
