package sim

import "fmt"

// This file is the dynamic companion to the shrimplint static rules: a
// replay-divergence harness. A scenario is run twice and the complete event
// stream of every engine it creates — event times, sequence numbers, and
// process dispatches — is folded into a 64-bit digest, one multiply per
// word. Equal digests mean the two runs executed the identical schedule; a
// mismatch means something nondeterministic (map iteration order, unseeded
// randomness, wall-clock leakage, host-scheduler dependence) steered the
// simulation.

// TB is the subset of testing.TB the determinism checker needs, declared
// locally so sim does not import the testing package.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// autoTracer, while non-nil, is attached to every engine NewEngine creates.
// Digest installs it so a scenario is observed across all the engines and
// clusters it builds internally. Single goroutine discipline: Digest must
// be called from the goroutine that builds and runs the engines.
var autoTracer *DigestTracer

// fold mixes one word into a digest. Each step is a bijection in h — xor
// with x, multiply by an odd constant, xor-shift — so for a fixed stream,
// changing any one word always changes every later h and the final sum.
func fold(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// nameHash folds a proc name eight bytes to a word, then its length. Spawn
// computes it once, so a proc switch folds one word instead of the name.
func nameHash(name string) uint64 {
	var h, w uint64
	for i := 0; i < len(name); i++ {
		w |= uint64(name[i]) << (8 * (i % 8))
		if i%8 == 7 {
			h, w = fold(h, w), 0
		}
	}
	return fold(fold(h, w), uint64(len(name)))
}

// DigestTracer folds an engine's execution stream — event times, sequence
// numbers and process dispatches — into a replay digest. Digest attaches
// one to every engine a scenario builds; runners that digest specific
// engines attach their own with Engine.AddTracer (directly or through
// cluster.Config.Auto). The fold is the same either way, so a scenario
// digested through either route produces the same sum.
type DigestTracer struct {
	sum uint64
	// Events and Switches tally what was hashed, for failure diagnostics.
	Events   int64
	Switches int64
}

// NewDigestTracer returns an empty digest fold.
func NewDigestTracer() *DigestTracer { return &DigestTracer{} }

// Event implements Tracer: it folds at<<1, then seq. Virtual times are
// nonnegative, so the shift loses no bit, and the clear low bit keeps an
// event's first word apart from a switch's at the same instant.
func (d *DigestTracer) Event(at Time, seq uint64) {
	d.Events++
	d.sum = fold(fold(d.sum, uint64(at)<<1), seq)
}

// ProcSwitch implements Tracer: it folds at<<1|1, then the proc's name
// hash.
func (d *DigestTracer) ProcSwitch(at Time, p *Proc) {
	d.Switches++
	d.sum = fold(fold(d.sum, uint64(at)<<1|1), p.nameHash)
}

// Sum returns the digest of everything observed so far.
func (d *DigestTracer) Sum() uint64 { return d.sum }

// Digest runs scenario and returns the replay digest of the complete
// execution stream of every engine created during the call. The scenario is
// responsible for building its world (engines, clusters, processes) and
// running it to completion.
func Digest(scenario func()) uint64 {
	dt := NewDigestTracer()
	prev := autoTracer
	autoTracer = dt
	defer func() { autoTracer = prev }()
	scenario()
	return dt.Sum()
}

// CheckDeterminism runs scenario twice and fails t if the two execution
// digests differ: the simulation's promise is that identical scenarios
// replay bit-for-bit, so any divergence is a determinism bug (map-order
// iteration, unseeded randomness, wall-clock or host-scheduler leakage).
func CheckDeterminism(t TB, scenario func()) {
	t.Helper()
	first := Digest(scenario)
	second := Digest(scenario)
	if first != second {
		t.Fatalf("sim: replay divergence: run 1 digest %#016x != run 2 digest %#016x\n"+
			"the scenario executed a different event schedule on each run; "+
			"look for map iteration driving scheduling, unseeded math/rand, or wall-clock reads", first, second)
	}
}

// DigestString formats a digest the way failure messages render it.
func DigestString(d uint64) string { return fmt.Sprintf("%#016x", d) }
