package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenRecords pins, per cell set, the SHA-256 of the JSON records the
// cells emit at root seed 1. Each set runs in under a second at the
// default scale. A deliberate change to the algorithms or the records
// re-records the digest and says why.
var goldenRecords = []struct {
	name   string
	cells  []string
	digest string
}{
	// The cells that lean hardest on Ctx.Idle: Congested-Clique listing
	// over the Lenzen oracle router (E1/E2-k3) and μ-CONGEST triangle
	// listing over the expander router (E3, E11/E12). Recorded with Idle
	// as a plain loop of Ticks and the router's two-barrier schedule
	// agreement; the engine sleep and the folded router barrier must
	// reproduce every rounds, peakWords and overMuRounds figure exactly.
	{"idle", []string{"E1/E2-k3", "E3", "E11/E12"},
		"203af94a5ba0889d4008ac9623242cf69e3f8fe959ec9a7df4c6a3eec4aa5d3b"},
	// The cells built on the pipelined tree upcast and its FINISH
	// countdown: naive and cached p-pass (E4/E5), random order (E6) and
	// one-way mergeable summaries (E7). Recorded with the three
	// hand-rolled gather loops the upcast replaced.
	{"upcast", []string{"E4/E5", "E6", "E7"},
		"9c2f954806e158aaaccb32ba0e9661e00245251b45bfa0ba148db820144bd2ef"},
	// The largest Congested-Clique cell: 4-clique listing over 82,251
	// cover blocks at μ=36 (E1/E2-k4). Recorded with one Lenzen routing
	// call per block; routing a chunk of blocks per call must reproduce
	// every rounds, peakWords and overMuRounds figure exactly.
	{"cc-k4", []string{"E1/E2-k4"},
		"0d57d3a735943b0438e8a818535134062c4592bb3af424cb8d9163f3d414d147"},
}

// TestIdleCellRecordsGolden pins the records of each golden cell set.
func TestIdleCellRecordsGolden(t *testing.T) {
	for _, tc := range goldenRecords {
		t.Run(tc.name, func(t *testing.T) {
			want := map[string]bool{}
			for _, id := range tc.cells {
				want[id] = true
			}
			var specs []Spec
			for _, sp := range Specs() {
				if want[sp.ID] {
					specs = append(specs, sp)
				}
			}
			if len(specs) != len(tc.cells) {
				t.Fatalf("found %d of the %d golden cells in Specs()", len(specs), len(tc.cells))
			}
			var buf bytes.Buffer
			if err := WriteRecordsJSON(&buf, Records(RunSerial(specs, 1))); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.digest {
				t.Fatalf("records digest %s, want %s; records:\n%s", got, tc.digest, buf.String())
			}
		})
	}
}
