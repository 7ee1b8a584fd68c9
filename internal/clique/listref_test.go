package clique

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mucongest/internal/graph"
)

// listInEdgeSetRef is the map-and-graph ListInEdgeSet the scratch kernel
// replaced: it maps ids through a map, builds a graph.Graph and runs
// ListAll on it. The reference for TestListInEdgeSetMatchesReference.
func listInEdgeSetRef(edges [][2]int, k int) []Clique {
	ids := make(map[int]int)
	var order []int
	for _, e := range edges {
		for _, v := range e {
			if _, ok := ids[v]; !ok {
				ids[v] = len(order)
				order = append(order, v)
			}
		}
	}
	sort.Ints(order)
	for i, v := range order {
		ids[v] = i
	}
	g := graph.New(len(order))
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := ids[e[0]], ids[e[1]]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			g.AddEdge(u, v)
		}
	}
	g.Finish()
	var out []Clique
	for _, cl := range ListAll(g, k) {
		mapped := make(Clique, len(cl))
		for i, v := range cl {
			mapped[i] = order[v]
		}
		sort.Ints(mapped)
		out = append(out, mapped)
	}
	return out
}

// dedupRef is the string-keyed map Dedup the sort-based one replaced.
func dedupRef(cls []Clique) []Clique {
	seen := make(map[string]Clique, len(cls))
	for _, c := range cls {
		s := make(Clique, len(c))
		copy(s, c)
		sort.Ints(s)
		seen[s.Key()] = s
	}
	out := make([]Clique, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		for x := range out[i] {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

// randomEdgeSet draws up to 80 edges over a random id range, negative
// and sparse ids included, with duplicates, reversed pairs and
// self-loops.
func randomEdgeSet(rng *rand.Rand) [][2]int {
	span := 1 + rng.Intn(20)
	base := rng.Intn(2000) - 1000
	stride := 1 + rng.Intn(50)
	edges := make([][2]int, rng.Intn(81))
	for i := range edges {
		edges[i] = [2]int{base + stride*rng.Intn(span), base + stride*rng.Intn(span)}
	}
	return edges
}

// TestListInEdgeSetMatchesReference requires the scratch kernel to
// return exactly the reference's cliques in the reference's order, for
// k from 0 to 5, on one lister reused across every call, and the
// cliques a call returned to survive the next call.
func TestListInEdgeSetMatchesReference(t *testing.T) {
	var l lister
	var prev, prevWant []Clique
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := randomEdgeSet(rng)
		k := rng.Intn(6)
		want := listInEdgeSetRef(edges, k)
		got := slices.Clone(l.list(edges, k)) // the slice is the lister's
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d k=%d: got %v, want %v", seed, k, got, want)
			return false
		}
		if !reflect.DeepEqual(ListInEdgeSet(edges, k), want) {
			t.Logf("seed %d k=%d: ListInEdgeSet differs from the reference", seed, k)
			return false
		}
		if !reflect.DeepEqual(prev, prevWant) {
			t.Logf("seed %d: the previous call's cliques changed", seed)
			return false
		}
		prev, prevWant = got, want
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDedupMatchesReference requires the sort-based Dedup to return
// exactly the map-based reference's cliques, and SameSet to agree with
// set equality of the references.
func TestDedupMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		draw := func() []Clique {
			cls := make([]Clique, rng.Intn(30))
			for i := range cls {
				cl := make(Clique, k)
				for j := range cl {
					cl[j] = rng.Intn(6) - 2
				}
				cls[i] = cl
			}
			return cls
		}
		a, b := draw(), draw()
		if !reflect.DeepEqual(Dedup(a), dedupRef(a)) {
			t.Logf("seed %d: Dedup(%v) = %v, want %v", seed, a, Dedup(a), dedupRef(a))
			return false
		}
		if SameSet(a, b) != reflect.DeepEqual(dedupRef(a), dedupRef(b)) {
			t.Logf("seed %d: SameSet(%v, %v) wrong", seed, a, b)
			return false
		}
		return SameSet(a, append(append([]Clique{}, a...), a...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkListInEdgeSet lists the triangles and 4-cliques of a G(24,
// 0.5) edge set, about one master's block at the default grid's scale:
// the map-and-graph reference, ListInEdgeSet on fresh scratch, and a
// lister reused across calls as the node programs keep one. Run with
// -benchmem: the reused lister allocates only the returned cliques.
func BenchmarkListInEdgeSet(b *testing.B) {
	g := graph.Gnp(24, 0.5, rand.New(rand.NewSource(1)))
	var edges [][2]int
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	for _, k := range []int{3, 4} {
		b.Run(fmt.Sprintf("reference/k=%d", k), func(b *testing.B) {
			for range b.N {
				listInEdgeSetRef(edges, k)
			}
		})
		b.Run(fmt.Sprintf("fresh/k=%d", k), func(b *testing.B) {
			for range b.N {
				ListInEdgeSet(edges, k)
			}
		})
		b.Run(fmt.Sprintf("reused/k=%d", k), func(b *testing.B) {
			var l lister
			for range b.N {
				l.list(edges, k)
			}
		})
	}
}
