// Package retry is the deterministic jittered-exponential-backoff helper
// behind every RPC retry loop in the simulation. The fixed-interval
// retries it replaces hammer a dead route at the failure-detection period
// forever; a Backoff instead spreads attempts out exponentially, jitters
// them so simultaneous victims of one partition do not retry in lockstep,
// and stops after a budget so callers must eventually treat the peer as
// unreachable.
//
// Every draw comes from a private splitmix64 stream seeded by the caller
// (math/rand is banned on these paths by shrimplint), never from the wall
// clock, and sleeping is the caller's job — so the package is a leaf,
// usable from any layer, and a given (policy, seed) pair replays
// bit-for-bit.
package retry

import "time"

// Policy describes a backoff schedule. The zero value is usable: it takes
// the documented defaults for Base, Max, Factor and Jitter, and allows no
// retries at all (Budget 0), which is the safe default for callers that
// have not thought about retry amplification.
type Policy struct {
	// Base is the nominal first backoff (default 100µs).
	Base time.Duration
	// Max caps the nominal backoff growth (default 100ms).
	Max time.Duration
	// Factor multiplies the nominal backoff after each attempt
	// (default 2; values below 1 are treated as 1).
	Factor float64
	// Jitter is the fraction of each backoff drawn uniformly at random:
	// a sleep is nominal*(1-Jitter) + u*nominal*Jitter with u in [0,1).
	// Zero means no jitter; 1 means full-range jitter.
	Jitter float64
	// Budget is the number of retries allowed (not counting the original
	// attempt): Next returns ok=false once it is spent.
	Budget int
}

// withDefaults resolves the zero-value defaults.
func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 100 * time.Microsecond
	}
	if p.Max <= 0 {
		p.Max = 100 * time.Millisecond
	}
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Seed folds any number of identifying integers (node IDs, port numbers,
// generation counters) into one well-mixed backoff seed, so call sites can
// decorrelate their jitter streams without inventing ad-hoc bit packing.
func Seed(parts ...uint64) uint64 {
	s := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		s ^= mix64(p + s)
	}
	return s
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Backoff is one retry loop's state: the exponential cursor, the remaining
// budget, and a private splitmix64 stream for jitter. Not safe for sharing
// across procs; each retry loop owns its Backoff.
type Backoff struct {
	pol      Policy
	rng      uint64
	nominal  time.Duration
	attempts int
}

// New builds a Backoff for the policy. The seed drives jitter only; with
// Jitter 0 the seed is irrelevant and the schedule is purely exponential.
func New(pol Policy, seed uint64) *Backoff {
	p := pol.withDefaults()
	return &Backoff{pol: p, rng: seed ^ 0x9e3779b97f4a7c15, nominal: p.Base}
}

// Next returns the wait before the next retry and whether the caller may
// retry at all: ok=false means the budget is spent and the caller must
// give up. The returned duration is always positive when ok, so a retry
// never happens at the same virtual instant as the failure.
func (b *Backoff) Next() (d time.Duration, ok bool) {
	if b.attempts >= b.pol.Budget {
		return 0, false
	}
	b.attempts++
	d = b.nominal
	if b.pol.Jitter > 0 {
		span := float64(d) * b.pol.Jitter
		d = time.Duration(float64(d) - span + b.f64()*span)
	}
	if d <= 0 {
		d = 1
	}
	b.nominal = time.Duration(float64(b.nominal) * b.pol.Factor)
	if b.nominal > b.pol.Max {
		b.nominal = b.pol.Max
	}
	return d, true
}

// Reset rewinds the schedule and budget after a success, so the next
// failure starts from Base again. The jitter stream is NOT rewound —
// replaying identical sleeps after every success would re-correlate
// loops that Seed deliberately decorrelated.
func (b *Backoff) Reset() {
	b.nominal = b.pol.Base
	b.attempts = 0
}

// Attempts reports how many retries Next has granted since the last Reset.
func (b *Backoff) Attempts() int { return b.attempts }

// f64 draws uniform [0,1) from the private splitmix64 stream.
func (b *Backoff) f64() float64 {
	b.rng += 0x9e3779b97f4a7c15
	return float64(mix64(b.rng)>>11) / (1 << 53)
}
