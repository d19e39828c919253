package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"shrimp/internal/fault"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

var updateManifest = flag.Bool("update", false, "rewrite results/manifest.txt from the current code")

const manifestPath = "../../results/manifest.txt"

// manifestColumns names the fields of a manifest line, in order.
var manifestColumns = [...]string{"cell", "digest", "events", "switches", "output"}

const manifestHeader = `# Determinism manifest: one line per cell of the chaos matrix and per
# scenario-table row without a plan of its own, each run once at injector
# seed 1 with a replay digest and a trace collector attached.
# Columns: cell, replay digest, engine events, proc switches, and the SHA-256
# of the cell's description line followed by its Chrome trace.
# TestDeterminismManifest checks the code against it; regenerate it with
# make manifest and explain every field that moved.
`

// namedCell is one cell of the determinism manifest under its unique name.
type namedCell struct {
	name string
	chaosCell
}

// matrixCells is the manifest's cell list: the whole chaos matrix (every
// scenario-table row under every standard plan, named row-plan, and each
// row with a plan of its own, named by the row) plus every row without a
// plan of its own under the empty plan, named by the row.
func matrixCells() []namedCell {
	var cells []namedCell
	for _, c := range chaosCells() {
		name := c.name
		if c.scenario.plan == nil {
			name += "-" + c.plan.Name
		}
		cells = append(cells, namedCell{name, c})
	}
	for _, s := range scenarios() {
		if s.plan == nil {
			cells = append(cells, namedCell{s.name, chaosCell{s, fault.Plan{Name: "none"}}})
		}
	}
	return cells
}

// manifestLine runs one cell and renders its manifest fields.
func manifestLine(t *testing.T, c namedCell) []string {
	t.Helper()
	tc := trace.New()
	r := &run{trace: tc, mod: underPlan(c.plan, 1), digest: sim.NewDigestTracer()}
	defer r.close()
	desc, err := c.run(r)
	if err != nil {
		t.Fatalf("cell %s: %v", c.name, err)
	}
	chrome, err := tc.ChromeTrace()
	if err != nil {
		t.Fatalf("cell %s: chrome trace: %v", c.name, err)
	}
	h := sha256.New()
	h.Write([]byte(desc + "\n"))
	h.Write(chrome)
	return []string{
		c.name,
		sim.DigestString(r.digest.Sum()),
		strconv.FormatInt(r.digest.Events, 10),
		strconv.FormatInt(r.digest.Switches, 10),
		hex.EncodeToString(h.Sum(nil)),
	}
}

// TestDeterminismManifest turns "byte-identical to the parent" into a
// check: every cell's replay digest, event and switch counts, and output
// hash must equal its committed line in results/manifest.txt. A mismatch
// names the cell and the field that moved. `go test ./internal/bench -run
// TestDeterminismManifest -update` (make manifest) rewrites the file.
func TestDeterminismManifest(t *testing.T) {
	var lines [][]string
	var b strings.Builder
	b.WriteString(manifestHeader)
	for _, c := range matrixCells() {
		f := manifestLine(t, c)
		lines = append(lines, f)
		b.WriteString(strings.Join(f, " ") + "\n")
	}
	if *updateManifest {
		if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) == b.String() {
		return
	}
	want := map[string][]string{}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			if len(f) != len(manifestColumns) {
				t.Fatalf("manifest line %q: %d fields, want %d", l, len(f), len(manifestColumns))
			}
			want[f[0]] = f
		}
	}
	for _, got := range lines {
		w, ok := want[got[0]]
		if !ok {
			t.Errorf("cell %s: not in the manifest", got[0])
			continue
		}
		delete(want, got[0])
		for i := 1; i < len(manifestColumns); i++ {
			if got[i] != w[i] {
				t.Errorf("cell %s: %s moved: manifest %s, now %s", got[0], manifestColumns[i], w[i], got[i])
			}
		}
	}
	for name := range want {
		t.Errorf("cell %s: in the manifest but no longer in the matrix", name)
	}
	if !t.Failed() {
		t.Errorf("%s matches field by field but not byte for byte", manifestPath)
	}
	t.Log("if the change is intended, regenerate with `make manifest` and explain the diff")
}
