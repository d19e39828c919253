package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"shrimp/internal/sim"
)

// scenarioRow returns the scenario table's row called name.
func scenarioRow(tb testing.TB, name string) scenario {
	tb.Helper()
	for _, s := range scenarios() {
		if s.name == name {
			return s
		}
	}
	tb.Fatalf("no scenario %q in the table", name)
	return scenario{}
}

// TestScenarioTableWellFormed: every row has a unique name and a body, and
// TraceFigure's error lists every row.
func TestScenarioTableWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range scenarios() {
		if s.name == "" || s.run == nil || seen[s.name] {
			t.Fatalf("malformed or duplicate row %q", s.name)
		}
		seen[s.name] = true
	}
	_, err := TraceFigure("nonesuch", nil)
	if err == nil {
		t.Fatal("TraceFigure accepted an unknown name")
	}
	for name := range seen {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
}

// sleeper builds a bare engine digested into r that sleeps d and runs it,
// returning r's digest so far.
func sleeper(r *run, d time.Duration) uint64 {
	e := sim.NewEngine()
	e.AddTracer(r.digest)
	e.Spawn("sleeper", func(p *sim.Proc) { p.Sleep(d) })
	e.RunAll()
	return r.digest.Sum()
}

// TestReplayUnstableNamesBothDigests: a body that takes a different path on
// its second run is unstable, and the verdict names both digests.
func TestReplayUnstableNamesBothDigests(t *testing.T) {
	var sums [2]uint64
	v := replay(nil, func(r *run, i int) error {
		sums[i] = sleeper(r, time.Duration(i+1)*time.Microsecond)
		return nil
	})
	if v.stable || v.digest != sums[0] || sums[0] == sums[1] {
		t.Fatalf("verdict %+v for digests %x, %x", v, sums[0], sums[1])
	}
	for _, d := range sums {
		if !strings.Contains(v.detail, sim.DigestString(d)) {
			t.Errorf("detail %q does not name digest %s", v.detail, sim.DigestString(d))
		}
	}
}

// TestReplaySecondRunFailure: a body that fails only on its second run
// fails the verdict under the "second run:" prefix, even though the two
// runs folded the same digest.
func TestReplaySecondRunFailure(t *testing.T) {
	v := replay(nil, func(r *run, i int) error {
		sleeper(r, time.Microsecond)
		if i == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if !v.stable || v.detail != "second run: boom" {
		t.Fatalf("verdict %+v, want stable with detail %q", v, "second run: boom")
	}
}

// TestReplayStable: the same path twice passes with an empty detail.
func TestReplayStable(t *testing.T) {
	v := replay(nil, func(r *run, i int) error {
		sleeper(r, time.Microsecond)
		return nil
	})
	if !v.stable || v.detail != "" {
		t.Fatalf("verdict %+v, want stable with no detail", v)
	}
}
