package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenCells are the grid cells whose runs lean hardest on Ctx.Idle:
// Congested-Clique listing over the Lenzen oracle router (E1/E2-k3) and
// μ-CONGEST triangle listing over the expander router (E3, E11/E12).
// Each runs in well under a second at the default scale.
var goldenCells = map[string]bool{"E1/E2-k3": true, "E3": true, "E11/E12": true}

// goldenRecordsDigest is the SHA-256 of the JSON records those cells
// emit at root seed 1, recorded with Idle as a plain loop of Ticks and
// the router's two-barrier schedule agreement. The engine sleep and the
// folded router barrier must reproduce every rounds, peakWords and
// overMuRounds figure exactly; a deliberate change to the algorithms or
// the records re-records the digest and says why.
const goldenRecordsDigest = "203af94a5ba0889d4008ac9623242cf69e3f8fe959ec9a7df4c6a3eec4aa5d3b"

// TestIdleCellRecordsGolden pins the records of the Idle-heavy cells.
func TestIdleCellRecordsGolden(t *testing.T) {
	var specs []Spec
	for _, sp := range Specs() {
		if goldenCells[sp.ID] {
			specs = append(specs, sp)
		}
	}
	if len(specs) != len(goldenCells) {
		t.Fatalf("found %d of the %d golden cells in Specs()", len(specs), len(goldenCells))
	}
	var buf bytes.Buffer
	if err := WriteRecordsJSON(&buf, Records(RunSerial(specs, 1))); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenRecordsDigest {
		t.Fatalf("records digest %s, want %s; records:\n%s", got, goldenRecordsDigest, buf.String())
	}
}
