// Package clique implements the paper's clique-listing algorithms: the
// local listing primitive of Theorem B.1, the deterministic k-clique
// listing in the μ-Congested-Clique via subset covers (Theorem 2.10),
// and the μ-CONGEST triangle listing of Theorem 1.2 built on clustering
// and memory-chunked edge delivery, plus a brute-force reference
// enumerator used for correctness checks and by master nodes on their
// μ-bounded edge batches.
package clique

import (
	"cmp"
	"slices"

	"mucongest/internal/graph"
)

// Clique is a sorted list of k node ids forming a clique.
type Clique []int

// Key returns a canonical string key for set-comparison in tests and
// dedup.
func (c Clique) Key() string {
	b := make([]byte, 0, len(c)*4)
	for _, v := range c {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

// ListAll enumerates every k-clique of g by ordered extension: cliques
// are grown in increasing node order, intersecting candidate sets. The
// reference algorithm for tests.
func ListAll(g *graph.Graph, k int) []Clique {
	if k < 1 {
		return nil
	}
	var out []Clique
	cur := make([]int, 0, k)
	var extend func(cands []int)
	extend = func(cands []int) {
		if len(cur) == k {
			cl := make(Clique, k)
			copy(cl, cur)
			out = append(out, cl)
			return
		}
		for i, v := range cands {
			cur = append(cur, v)
			if len(cur) == k {
				extend(nil)
			} else {
				next := intersect(make([]int, 0, min(len(cands)-i-1, g.Degree(v))), cands[i+1:], g.Neighbors(v))
				extend(next)
			}
			cur = cur[:len(cur)-1]
		}
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	extend(all)
	return out
}

// intersect appends the intersection of two ascending int slices to dst.
func intersect(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// ListInEdgeSet enumerates all k-cliques of the graph induced by the
// given edge list (node ids arbitrary; self-loops and duplicate edges
// are ignored, but a self-loop's node counts as a 1-clique). Each clique
// is ascending and the cliques come in lexicographic order, ordered
// extension's order. Used by master nodes on their ≤ μ-word edge
// batches.
func ListInEdgeSet(edges [][2]int, k int) []Clique {
	var l lister
	return l.list(edges, k)
}

// lister is ListInEdgeSet's scratch. A node that lists once per block
// keeps one and reuses it, so a call allocates only the cliques it
// returns.
type lister struct {
	ids   []int    // the distinct endpoint ids, ascending: compact id i is ids[i]
	pairs [][2]int // the distinct edges as ascending (lo, hi) id pairs
	off   []int    // forward CSR over compact ids: row v is fwd[off[v]:off[v+1]]
	fwd   []int    // each edge once, at its smaller end; rows ascending
	cur   []int    // the clique being extended, compact ids
	cands [][]int  // the candidate set per extension depth
	flat  []int    // the cliques found, k ids each
	out   []Clique
}

// list is ListInEdgeSet on l's scratch. The returned slice is valid
// until l's next call; the cliques in it are fresh and outlive it.
func (l *lister) list(edges [][2]int, k int) []Clique {
	if k < 1 {
		return nil
	}
	ids := l.ids[:0]
	pairs := l.pairs[:0]
	for _, e := range edges {
		ids = append(ids, e[0], e[1])
		if u, v := e[0], e[1]; u != v {
			pairs = append(pairs, [2]int{min(u, v), max(u, v)})
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	slices.SortFunc(pairs, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	pairs = slices.Compact(pairs)
	l.ids, l.pairs = ids, pairs

	// Compact ids keep the id order, so the sorted pairs give each
	// forward row already ascending.
	m := len(ids)
	off := append(l.off[:0], make([]int, m+1)...)
	fwd := l.fwd[:0]
	for _, p := range pairs {
		u, _ := slices.BinarySearch(ids, p[0])
		v, _ := slices.BinarySearch(ids, p[1])
		off[u+1]++
		fwd = append(fwd, v)
	}
	for v := 1; v <= m; v++ {
		off[v] += off[v-1]
	}
	l.off, l.fwd = off, fwd
	for len(l.cands) < k {
		l.cands = append(l.cands, nil)
	}

	if k == 1 {
		l.flat = append(l.flat[:0], ids...)
	} else {
		l.flat = l.flat[:0]
		for v := range m {
			l.cur = append(l.cur[:0], v)
			l.extend(k, fwd[off[v]:off[v+1]])
		}
	}
	if len(l.flat) == 0 {
		return nil
	}
	// One allocation holds every returned clique.
	back := slices.Clone(l.flat)
	out := l.out[:0]
	for i := 0; i < len(back); i += k {
		out = append(out, Clique(back[i:i+k:i+k]))
	}
	l.out = out
	return out
}

// extend grows l.cur into every k-clique whose remaining nodes come from
// cands: the ascending compact ids after l.cur's last node that are
// adjacent to all of l.cur.
func (l *lister) extend(k int, cands []int) {
	d := len(l.cur)
	if len(cands) < k-d {
		return
	}
	for i, v := range cands {
		l.cur = append(l.cur, v)
		if d+1 == k {
			for _, u := range l.cur {
				l.flat = append(l.flat, l.ids[u])
			}
		} else {
			l.cands[d] = intersect(l.cands[d][:0], cands[i+1:], l.fwd[l.off[v]:l.off[v+1]])
			l.extend(k, l.cands[d])
		}
		l.cur = l.cur[:d]
	}
}

// Dedup returns the set union of cliques, each sorted ascending, in
// lexicographic order. The returned cliques are copies.
func Dedup(cls []Clique) []Clique {
	words := 0
	for _, c := range cls {
		words += len(c)
	}
	back := make([]int, 0, words)
	out := make([]Clique, 0, len(cls))
	for _, c := range cls {
		lo := len(back)
		back = append(back, c...)
		s := Clique(back[lo:len(back):len(back)])
		slices.Sort(s)
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b Clique) int { return slices.Compare(a, b) })
	return slices.CompactFunc(out, func(a, b Clique) bool { return slices.Equal(a, b) })
}

// SameSet reports whether two clique collections are equal as sets.
func SameSet(a, b []Clique) bool {
	return slices.EqualFunc(Dedup(a), Dedup(b), func(x, y Clique) bool { return slices.Equal(x, y) })
}
