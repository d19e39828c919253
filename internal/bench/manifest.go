package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"shrimp/internal/fault"
	"shrimp/internal/sim"
	"shrimp/internal/trace"
)

const manifestHeader = `# Determinism manifest: one line per cell of the chaos matrix and per
# scenario-table row without a plan of its own, each run once at injector
# seed 1 with a replay digest and a trace collector attached.
# Columns: cell, replay digest, engine events, proc switches, and the SHA-256
# of the cell's description line followed by its Chrome trace.
# TestGolden (cmd/shrimpbench) checks the code against it; regenerate it with
# make golden and explain every field that moved.
`

// namedCell is one cell of the determinism manifest under its unique name.
type namedCell struct {
	name string
	chaosCell
}

// matrixCells is the manifest's cell list: the whole chaos matrix (every
// scenario-table row under every standard plan it runs under, named
// row-plan, and each row with a plan of its own, named by the row) plus
// every row without a plan of its own under the empty plan, named by the
// row.
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

// runCell runs c once at injector seed 1 with a replay digest attached,
// traced into tc (nil runs it untraced), and returns its description and
// digest. A cell whose plan faults links fails if its run drew no link
// fault: it would only repeat the sublayer's unfaulted run. The check holds
// at seed 1, the seed the matrix's rates are set for; at another seed the
// soak may draw none in a short cell and still pass.
func runCell(c chaosCell, tc *trace.Collector) (string, *sim.DigestTracer, error) {
	r := &run{trace: tc, mod: underPlan(c.plan, 1), digest: sim.NewDigestTracer()}
	defer r.close()
	desc, err := c.run(r)
	if link, _ := r.injected(); err == nil && c.plan.Link != (fault.LinkFaults{}) && link == 0 {
		err = errors.New("the plan injected no link fault")
	}
	return desc, r.digest, err
}

// manifestLine runs one cell traced and renders its manifest line: name,
// replay digest, event and switch counts, and output hash.
func manifestLine(c namedCell) (string, error) {
	tc := trace.New()
	desc, d, err := runCell(c.chaosCell, tc)
	if err != nil {
		return "", fmt.Errorf("cell %s: %w", c.name, err)
	}
	chrome, err := tc.ChromeTrace()
	if err != nil {
		return "", fmt.Errorf("cell %s: chrome trace: %w", c.name, err)
	}
	h := sha256.New()
	h.Write([]byte(desc + "\n"))
	h.Write(chrome)
	return fmt.Sprintf("%s %s %d %d %s", c.name, sim.DigestString(d.Sum()),
		d.Events, d.Switches, hex.EncodeToString(h.Sum(nil))), nil
}

// WriteManifest runs every cell of the manifest in order and writes the
// determinism manifest (results/manifest.txt) to w.
func WriteManifest(w io.Writer) error {
	b := []byte(manifestHeader)
	for _, c := range matrixCells() {
		l, err := manifestLine(c)
		if err != nil {
			return err
		}
		b = append(append(b, l...), '\n')
	}
	_, err := w.Write(b)
	return err
}
