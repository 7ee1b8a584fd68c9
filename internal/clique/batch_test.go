package clique

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mucongest/internal/graph"
	"mucongest/internal/sim"
)

// batchBlock draws one block's deposits for every node of an n-node
// clique. Its load is 0, n-1, n, 3n-2, or random with duplicates in
// (A, B), so the Lenzen charge takes each of its forms.
func batchBlock(rng *rand.Rand, n int) [][]Packet {
	deps := make([][]Packet, n)
	switch rng.Intn(6) {
	case 0: // load 0
	case 1: // load n-1: one packet to every other node
		for id := range deps {
			for d := 0; d < n; d++ {
				if d != id {
					deps[id] = append(deps[id], Packet{Dst: d, A: int64(id)})
				}
			}
		}
	case 2: // load n: n packets from node 0 to itself
		deps[0] = make([]Packet, n)
	case 3: // load 3n-2: from node 1 to node 0
		deps[1] = make([]Packet, 3*n-2)
	default:
		for id := range deps {
			for range rng.Intn(2 * n) {
				deps[id] = append(deps[id], Packet{
					Dst: rng.Intn(n), A: int64(rng.Intn(3)), B: int64(rng.Intn(3)), C: int64(rng.Intn(100)),
				})
			}
		}
	}
	return deps
}

// lenzenCharge is one Route call's round charge for a block's deposits:
// two rounds of schedule agreement plus ⌈L/(n-1)⌉+1 for load L > 0.
func lenzenCharge(n int, deps [][]Packet) int {
	in := make([]int, n)
	load := 0
	for _, d := range deps {
		load = max(load, len(d))
		for _, p := range d {
			in[p.Dst]++
		}
	}
	for _, k := range in {
		load = max(load, k)
	}
	if load == 0 {
		return 2
	}
	return 2 + (load+n-2)/(n-1) + 1
}

// TestRouteBatchMatchesRoute runs random chunks of 0 to 6 routing
// instances at n ≤ 12 three ways: one Route call per block, one
// RouteBatch call per chunk, and the two alternating by chunk on one
// router. Every node must receive the same packets in the same order in
// every block, and Round() after each chunk must equal the sum of the
// blocks' Route charges.
func TestRouteBatchMatchesRoute(t *testing.T) {
	for trial := range 40 {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(11)
		chunks := make([][][][]Packet, 1+rng.Intn(4)) // chunk, block, node
		wantRound := make([]int, len(chunks))
		round := 0
		for ci := range chunks {
			chunks[ci] = make([][][]Packet, rng.Intn(7)) // empty chunks too
			for b := range chunks[ci] {
				chunks[ci][b] = batchBlock(rng, n)
				round += lenzenCharge(n, chunks[ci][b])
			}
			wantRound[ci] = round
		}
		// batched reports whether chunk ci goes through RouteBatch.
		run := func(batched func(ci int) bool) *sim.Result {
			t.Helper()
			router := NewOracleRouter(n)
			res, err := sim.New(sim.NewComplete(n)).Run(func(c *sim.Ctx) {
				id := c.ID()
				for ci, chunk := range chunks {
					var recvs [][]Packet
					if batched(ci) {
						outs := make([][]Packet, len(chunk))
						for b := range chunk {
							outs[b] = chunk[b][id]
						}
						for _, in := range router.RouteBatch(c, outs) {
							recvs = append(recvs, append([]Packet{}, in...))
						}
					} else {
						for b := range chunk {
							recvs = append(recvs, append([]Packet{}, router.Route(c, chunk[b][id])...))
						}
					}
					c.Emit(recvs)
					c.Emit(c.Round())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(func(int) bool { return false })
		for v := range n {
			for ci := range chunks {
				if got := want.Outputs[v][2*ci+1].(int); got != wantRound[ci] {
					t.Fatalf("trial %d: Route: node %d Round() %d after chunk %d, want %d", trial, v, got, ci, wantRound[ci])
				}
			}
		}
		for _, mode := range []struct {
			name    string
			batched func(ci int) bool
		}{
			{"batched", func(int) bool { return true }},
			{"alternating", func(ci int) bool { return ci%2 == 0 }},
		} {
			got := run(mode.batched)
			for v := range n {
				if !reflect.DeepEqual(got.Outputs[v], want.Outputs[v]) {
					t.Fatalf("trial %d (n=%d) %s: node %d got\n%v\nwant (Route per block)\n%v",
						trial, n, mode.name, v, got.Outputs[v], want.Outputs[v])
				}
			}
			if got.Rounds != want.Rounds {
				t.Fatalf("trial %d %s: %d rounds, Route per block %d", trial, mode.name, got.Rounds, want.Rounds)
			}
		}
	}
}

// TestRouteBatchChunkLengthMismatch requires unequal chunk lengths to
// fail the run with a clear error instead of a hang or a silent
// misroute.
func TestRouteBatchChunkLengthMismatch(t *testing.T) {
	const n = 4
	router := NewOracleRouter(n)
	_, err := sim.New(sim.NewComplete(n)).Run(func(c *sim.Ctx) {
		router.RouteBatch(c, make([][]Packet, 2+c.ID()%2))
	})
	if err == nil || !strings.Contains(err.Error(), "RouteBatch: node 1 deposited 3 blocks, node 0 2") {
		t.Fatalf("err = %v, want the chunk length mismatch", err)
	}
}

// abortNode returns the node a strict-mode ErrMemory names.
func abortNode(t *testing.T, err error) int {
	t.Helper()
	var node int
	msg := err.Error()
	at := strings.LastIndex(msg, "node ")
	if !errors.Is(err, sim.ErrMemory) || at < 0 {
		t.Fatalf("err = %v, want ErrMemory", err)
	}
	if _, serr := fmt.Sscanf(msg[at:], "node %d", &node); serr != nil {
		t.Fatalf("no node in %q: %v", msg, serr)
	}
	return node
}

// TestCongestedCliqueChunkedMatchesPerBlock runs Congested-Clique
// listing with one routing call per block (chunk 1) against chunked
// routing, with μ below a master's adjacency plus one block's edge
// batch, so masters go over μ between barriers. In lenient mode every
// Result field must agree: Rounds, PeakWords, the Violations' Round,
// Words and OverRounds, and each node's output sequence.
//
// Under WithStrictMemory both fail with ErrMemory. A μ below an input
// adjacency aborts at the input charge, before any routing, so the two
// abort identically. An overrun inside a block's batch aborts the
// chunked run in the chunk's last round, on the lowest-id node over μ
// anywhere in the chunk: never earlier, and never on a higher id than
// the per-block abort. In the {0.8, 3, 16} case it is the same node
// with the same words; in the {0.6, 4, 16} case at the default chunk the
// node differs (node 0 in a later block of the chunk, against node 4).
func TestCongestedCliqueChunkedMatchesPerBlock(t *testing.T) {
	for _, tc := range []struct {
		p        float64
		k        int
		mu       int64
		violates bool // μ below some degree: barrier violations
		sameNode bool // the strict aborts name the same node and words at every chunk
	}{
		{0.8, 3, 16, false, true},
		{0.6, 4, 16, false, false},
		{0.6, 3, 12, true, true},
	} {
		g := graph.Gnp(16, tc.p, rand.New(rand.NewSource(8)))
		name := fmt.Sprintf("p=%v k=%d μ=%d", tc.p, tc.k, tc.mu)
		run := func(chunk int, opts ...sim.Option) (*sim.Result, error) {
			router := NewOracleRouter(g.N())
			opts = append(opts, sim.WithMu(tc.mu))
			return sim.New(sim.NewComplete(g.N()), opts...).Run(congestedCliqueKCliques(g, tc.k, tc.mu, router, chunk))
		}
		want, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		if want.MaxPeakWords() <= tc.mu || (len(want.Violations) > 0) != tc.violates {
			t.Fatalf("%s: peak %d, violations %v: want a block over μ, barrier violations %v",
				name, want.MaxPeakWords(), want.Violations, tc.violates)
		}
		if got := len(CollectTriangles(want)); got != len(ListAll(g, tc.k)) {
			t.Fatalf("%s: listed %d cliques, want %d", name, got, len(ListAll(g, tc.k)))
		}
		strict, strictErr := run(1, sim.WithStrictMemory())
		strictNode := abortNode(t, strictErr)
		blocks := newCCPlan(g.N(), tc.k, tc.mu).blocks
		for _, chunk := range []int{3, ccChunk} {
			if blocks <= chunk {
				t.Fatalf("%s: all %d blocks fit in one chunk of %d", name, blocks, chunk)
			}
			got, err := run(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s chunk %d: result differs from chunk 1:\nrounds %d vs %d, peak %v vs %v\nviolations %v vs %v",
					name, chunk, got.Rounds, want.Rounds, got.PeakWords, want.PeakWords, got.Violations, want.Violations)
			}
			res, err := run(chunk, sim.WithStrictMemory())
			node := abortNode(t, err)
			switch {
			case tc.sameNode && err.Error() != strictErr.Error(),
				tc.violates && res.Rounds != strict.Rounds:
				t.Fatalf("%s chunk %d: strict abort %q at round %d, chunk 1 %q at round %d",
					name, chunk, err, res.Rounds, strictErr, strict.Rounds)
			case !tc.sameNode && chunk == ccChunk && node == strictNode:
				t.Fatalf("%s chunk %d: strict abort on node %d as at chunk 1; the case no longer shows the documented difference",
					name, chunk, node)
			case node > strictNode || res.Rounds < strict.Rounds:
				t.Fatalf("%s chunk %d: strict abort on node %d at round %d, chunk 1 on node %d at round %d",
					name, chunk, node, res.Rounds, strictNode, strict.Rounds)
			}
		}
	}
}
