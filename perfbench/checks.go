package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"mucongest/internal/bench"
	"mucongest/internal/sim"
)

// opStats are the simulated statistics of one operation (one
// bench.Record or one engine run). They are deterministic in the seed,
// so they must repeat exactly across passes and, at pinnedSeed, equal
// the pinned values.
type opStats struct {
	Rounds       int
	Messages     int64
	PeakWords    int64
	MuViolations int
	OverMuRounds int
	// The fault ledger. Grid records carry only the fault drops, read
	// from the faultDrops column of the tables that print one (E13).
	Dropped    int64
	FaultDrops int64
	Crashes    int64
	Restarts   int64
}

// MarshalJSON writes the stats as one array in field order, which keeps
// pinned.json at one short line per operation.
func (s opStats) MarshalJSON() ([]byte, error) {
	return json.Marshal([9]int64{int64(s.Rounds), s.Messages, s.PeakWords,
		int64(s.MuViolations), int64(s.OverMuRounds), s.Dropped, s.FaultDrops, s.Crashes, s.Restarts})
}

func (s *opStats) UnmarshalJSON(b []byte) error {
	var a [9]int64
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	*s = opStats{int(a[0]), a[1], a[2], int(a[3]), int(a[4]), a[5], a[6], a[7], a[8]}
	return nil
}

// pinnedSeed is the default seed, the one the pinned statistics hold.
const pinnedSeed = 1

// pinnedDoc is the layout of pinned.json: the stats of every operation
// at pinnedSeed, keyed "CELL@ROOTSEED#ROW" for grid records and
// "engine/RUN" for engine runs, each an array in opStats field order.
type pinnedDoc struct {
	Seed int64              `json:"seed"`
	Ops  map[string]opStats `json:"ops"`
}

// statFields names the array elements of an opStats in pinned.json.
const statFields = `["rounds", "messages", "peakWords", "muViolations", "overMuRounds", "dropped", "faultDrops", "crashes", "restarts"]`

//go:embed pinned.json
var pinnedJSON []byte

func loadPinned() (*pinnedDoc, error) {
	var doc pinnedDoc
	if err := json.Unmarshal(pinnedJSON, &doc); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	if doc.Seed != pinnedSeed {
		return nil, fmt.Errorf("pinned.json holds seed %d, want %d", doc.Seed, pinnedSeed)
	}
	return &doc, nil
}

// recordStats reads the statistics of row i of table t.
func recordStats(t *bench.Table, i int) (opStats, error) {
	r := t.Records[i]
	st := opStats{
		Rounds: r.Rounds, Messages: r.Messages, PeakWords: r.PeakWords,
		MuViolations: r.MuViolations, OverMuRounds: r.OverMuRounds,
	}
	if c := column(t, "faultDrops"); c >= 0 {
		v, err := strconv.ParseInt(t.Rows[i][c], 10, 64)
		if err != nil {
			return st, fmt.Errorf("%s row %d: faultDrops %q: %v", r.Cell, i, t.Rows[i][c], err)
		}
		st.FaultDrops = v
	}
	return st, nil
}

func resultStats(res *sim.Result) opStats {
	return opStats{
		Rounds: res.Rounds, Messages: res.Messages, PeakWords: res.MaxPeakWords(),
		MuViolations: len(res.Violations), OverMuRounds: res.OverMuRounds(),
		Dropped: res.Dropped, FaultDrops: res.FaultDrops,
		Crashes: res.Crashes, Restarts: res.Restarts,
	}
}

// column returns the index of the named header column, or -1.
func column(t *bench.Table, name string) int {
	for i, h := range t.Header {
		if h == name {
			return i
		}
	}
	return -1
}

// checkListed checks a "found/expected" listing column (E1/E2's
// cliques, E3's triangles) of row i against the benchmark's own
// brute-force count: found must equal expected must equal want.
func checkListed(t *bench.Table, i, want int) error {
	c := column(t, "cliques")
	if c < 0 {
		c = column(t, "triangles")
	}
	if c < 0 {
		return nil
	}
	cell := t.Rows[i][c]
	found, expected, ok := strings.Cut(cell, "/")
	if !ok || found != expected || expected != strconv.Itoa(want) {
		return fmt.Errorf("row %d lists %s, brute force finds %d", i, cell, want)
	}
	return nil
}

// repeats fails unless st equals the stats first recorded for
// operation key and, when pinned is non-nil, its pinned stats. The
// first call for a key records st.
func repeats(first, pinned map[string]opStats, key string, st opStats) error {
	if f, ok := first[key]; ok {
		if err := compareStats(key+" against the first pass", st, f); err != nil {
			return err
		}
	} else {
		first[key] = st
	}
	if pinned == nil {
		return nil
	}
	want, ok := pinned[key]
	if !ok {
		return fmt.Errorf("%s: not in pinned.json", key)
	}
	return compareStats(key+" against pinned.json", st, want)
}

// writePinnedDoc writes doc with one operation per line.
func writePinnedDoc(path string, doc pinnedDoc) error {
	keys := make([]string, 0, len(doc.Ops))
	for k := range doc.Ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"fields\": %s,\n  \"ops\": {\n", doc.Seed, statFields)
	for i, k := range keys {
		kj, _ := json.Marshal(k) // a string always marshals
		vj, _ := json.Marshal(doc.Ops[k])
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s: %s%s\n", kj, vj, sep)
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// compareStats fails when got differs from want, naming both.
func compareStats(what string, got, want opStats) error {
	if got != want {
		return fmt.Errorf("%s: stats %+v, want %+v", what, got, want)
	}
	return nil
}

// tally counts operations and collects the reasons of the failed ones.
type tally struct {
	attempted, failed int
	problems          []string
}

// op records one operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.problems = append(t.problems, err.Error())
	}
}
