package sim

import "fmt"

// This file is the dynamic companion to the shrimplint static rules: a
// replay-divergence harness. A scenario is run twice and the complete event
// stream of every engine it creates — event times, sequence numbers, and
// process dispatches — is folded into an FNV-1a digest. Equal digests mean
// the two runs executed the identical schedule; a mismatch means something
// nondeterministic (map iteration order, unseeded randomness, wall-clock
// leakage, host-scheduler dependence) steered the simulation.

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

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DigestTracer folds an engine's execution stream — event times, sequence
// numbers and process dispatches — into an FNV-1a replay digest. Digest
// attaches one to every engine a scenario builds; runners that digest
// specific engines attach their own with Engine.AddTracer (directly or
// through cluster.Config.Auto). The fold is the same either way, so a
// scenario digested through either route produces the same sum.
type DigestTracer struct {
	sum uint64
	// Events and Switches tally what was hashed, for failure diagnostics.
	Events   int64
	Switches int64
}

// NewDigestTracer returns an empty digest fold.
func NewDigestTracer() *DigestTracer { return &DigestTracer{sum: fnvOffset64} }

func (d *DigestTracer) mixByte(b byte) {
	d.sum ^= uint64(b)
	d.sum *= fnvPrime64
}

func (d *DigestTracer) mix64(v uint64) {
	for i := 0; i < 8; i++ {
		d.mixByte(byte(v >> (8 * i)))
	}
}

// Event implements Tracer.
func (d *DigestTracer) Event(at Time, seq uint64) {
	d.Events++
	d.mixByte(0x01)
	d.mix64(uint64(at))
	d.mix64(seq)
}

// ProcSwitch implements Tracer.
func (d *DigestTracer) ProcSwitch(at Time, name string) {
	d.Switches++
	d.mixByte(0x02)
	d.mix64(uint64(at))
	for i := 0; i < len(name); i++ {
		d.mixByte(name[i])
	}
	d.mixByte(0x00)
}

// Fold mixes a finished digest into d as one FNV step over the whole word,
// for runners that digest each world apart and combine the sums in order.
func (d *DigestTracer) Fold(sum uint64) { d.sum = (d.sum ^ sum) * fnvPrime64 }

// Sum returns the FNV-1a digest of everything observed so far.
func (d *DigestTracer) Sum() uint64 { return d.sum }

// Digest runs scenario and returns the FNV-1a digest of the complete
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
