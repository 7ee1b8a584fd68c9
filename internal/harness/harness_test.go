package harness

import (
	"math/rand"
	"strings"
	"testing"

	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// corpusSeed pins the randomized corpus. Changing it re-rolls every
// scenario; the coverage assertions below keep any reroll honest.
const corpusSeed = 20260730

// corpusSize is the number of seeded scenarios the differential test
// runs; each executes on the reference engine once and on the
// production engine at workers 1 and 4.
const corpusSize = 200

// TestDifferentialEngineRandomized is the oracle gate for engine
// rewrites: 200 seeded scenarios spanning the topology registry, strict
// and lenient μ, every inbox order and multi-shard node counts, each
// cross-checked between the reference engine and the production engine
// in both execution modes (goroutine and step) at workers 1 and 4 —
// digests, PeakWords, violation records and abort identity all
// byte-identical — plus the metamorphic invariants.
//
// The coverage assertions make the corpus self-describing: if a
// generator change (or a new corpusSeed) narrows what the scenarios
// exercise, the test fails even though every comparison passed. That
// includes step-mode coverage: every behavior must have run stepped at
// least once, and every behavior must have a step-form twin at all.
func TestDifferentialEngineRandomized(t *testing.T) {
	scs := Corpus(corpusSeed, corpusSize)
	families := map[string]int{}
	orders := map[sim.InboxOrder]int{}
	strict := map[bool]int{}
	behaviors := map[string]int{}
	stepped := map[string]int{}
	reprs := map[string]int{}
	multiShard, bounded, aborted, violated, compact, faulty := 0, 0, 0, 0, 0, 0
	var crashes, restarts, faultDrops int64

	for i, sc := range scs {
		out, err := CheckScenario(sc, 1, 4)
		if err != nil {
			t.Errorf("scenario %d %v: %v", i, sc, err)
			continue
		}
		fam, _, _ := strings.Cut(sc.TopoSpec, ":")
		families[fam]++
		orders[sc.Order]++
		strict[sc.Strict]++
		behaviors[sc.Behavior]++
		if out.Stepped {
			stepped[sc.Behavior]++
		}
		if sc.N > sim.ShardSpan {
			multiShard++
		}
		if sc.Mu > 0 {
			bounded++
		}
		if sc.Compact {
			compact++
		}
		reprs[out.Repr]++
		if out.Aborted {
			aborted++
		}
		if out.Violations > 0 {
			violated++
		}
		if out.Faulty {
			faulty++
		}
		crashes += out.Crashes
		restarts += out.Restarts
		faultDrops += out.FaultDrops
	}
	if t.Failed() {
		return
	}

	t.Logf("corpus: families=%v orders=%v strict=%v behaviors=%v multiShard=%d bounded=%d aborted=%d violated=%d compact=%d reprs=%v faulty=%d crashes=%d restarts=%d faultDrops=%d",
		families, orders, strict, behaviors, multiShard, bounded, aborted, violated, compact, reprs, faulty, crashes, restarts, faultDrops)
	// Every registered family must be drawn: a family added to the topo
	// registry without a drawTopo case fails here until the generator
	// (and so the oracle) covers it.
	for _, fam := range topo.FamilyNames() {
		if families[fam] == 0 {
			t.Errorf("corpus never drew registered topology family %q", fam)
		}
	}
	// Every representation class must run: the CSR-backed graph and the
	// implicit arithmetic topologies — each implicit scenario is also
	// cross-certified against its Build graph inside CheckScenario, so a
	// nonzero count here means the representation equivalence was
	// actually exercised differentially.
	for _, r := range []string{"graph", "implicit"} {
		if reprs[r] == 0 {
			t.Errorf("corpus never ran a scenario on the %q representation", r)
		}
	}
	if compact == 0 {
		t.Error("corpus never drew a compact-representation scenario")
	}
	for o := sim.OrderBySender; o <= sim.OrderReversed; o++ {
		if orders[o] == 0 {
			t.Errorf("corpus never drew inbox order %d", o)
		}
	}
	if strict[true] == 0 || strict[false] == 0 {
		t.Errorf("corpus must cover both strict and lenient μ: %v", strict)
	}
	for _, b := range behaviorNames {
		if behaviors[b] == 0 {
			t.Errorf("corpus never drew behavior %q", b)
		}
		// A behavior without a step-form twin silently shrinks the step
		// runtime's differential coverage; adding one to Behaviors alone
		// must fail here until StepBehaviors gets the twin.
		if _, ok := StepBehaviors[b]; !ok {
			t.Errorf("behavior %q has no step-form twin in StepBehaviors", b)
		}
		if stepped[b] == 0 {
			t.Errorf("behavior %q never ran in step mode", b)
		}
	}
	if multiShard == 0 {
		t.Error("corpus never drew a multi-shard topology (n > sim.ShardSpan)")
	}
	if bounded == 0 || violated == 0 || aborted == 0 {
		t.Errorf("corpus must exercise bounded μ (%d), violations (%d) and aborts (%d)",
			bounded, violated, aborted)
	}
	// The fault axis must bite, not just parse: a meaningful share of
	// faulty scenarios, and real crashes, restarts and fault-induced
	// drops somewhere in the corpus — otherwise the parity claim "the
	// engines agree under failure" is vacuous.
	if faulty == 0 {
		t.Error("corpus never drew a faulty scenario")
	}
	if crashes == 0 || restarts == 0 || faultDrops == 0 {
		t.Errorf("fault plans never bit: crashes=%d restarts=%d faultDrops=%d", crashes, restarts, faultDrops)
	}
}

// FuzzEngineDifferential feeds arbitrary generator seeds through the
// scenario generator and requires the engines to stay byte-identical.
// The seed corpus keeps a handful of scenarios in the regular `go test`
// run; `go test -fuzz FuzzEngineDifferential ./internal/harness`
// explores further.
func FuzzEngineDifferential(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1536, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := Generate(rand.New(rand.NewSource(seed)))
		if _, err := CheckScenario(sc, 1, 4); err != nil {
			t.Fatalf("seed %d scenario %v: %v", seed, sc, err)
		}
	})
}

// TestIdleBehaviorDifferential certifies the engine's Idle sleep
// against refsim's naive k-Tick loop beyond the corpus's share of idle
// scenarios: generated scenarios forced onto the idle behavior, each
// run fault-free and under a crash/restart plan (crashes end sleeps
// early), at workers 1 and 4 and in both execution modes.
func TestIdleBehaviorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var crashes int64
	for i := 0; i < 24; i++ {
		sc := Generate(rng)
		sc.Behavior, sc.FailNode, sc.FailRound = "idle", -1, 0
		for _, faults := range []string{"", "crash:p=0.15,restart=2", "loss:p=0.2+crash:p=0.05,restart=3"} {
			sc.Faults = faults
			out, err := CheckScenario(sc, 1, 4)
			if err != nil {
				t.Fatalf("scenario %d %v: %v", i, sc, err)
			}
			crashes += out.Crashes
		}
	}
	if crashes == 0 {
		t.Error("no idle scenario crashed a node: the crash axis never bit")
	}
}
