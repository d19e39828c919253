// Package loadgen is the serving subsystem's open-loop deterministic
// traffic generator: gateways on chosen nodes emit request arrivals at a
// fixed rate in virtual time, with seeded Zipfian key draws, regardless
// of how the service is keeping up, which is what makes overload and
// shedding observable. Every random draw comes from a
// private splitmix64 stream seeded from the config, so the same
// configuration replays byte-identically.
package loadgen

import (
	"math"
	"sort"
)

// rng64 is a splitmix64 stream: tiny state, excellent mixing, and — unlike
// math/rand — impossible to construct unseeded.
type rng64 struct{ s uint64 }

func newRng(seed uint64) rng64 { return rng64{s: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a uniform draw in [0, 1).
func (r *rng64) f64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0, n).
func (r *rng64) intn(n int) int {
	return int(r.next() % uint64(n))
}

// zipfTable draws ranks 1..n from a Zipf(s) distribution by inverting a
// precomputed cumulative table — one uniform draw and a binary search per
// sample, no rejection loop, fully deterministic.
type zipfTable struct {
	cum []float64
}

func newZipf(n int, s float64) *zipfTable {
	cum := make([]float64, n)
	total := 0.0
	for i := 1; i <= n; i++ {
		total += 1.0 / math.Pow(float64(i), s)
		cum[i-1] = total
	}
	inv := 1.0 / total
	for i := range cum {
		cum[i] *= inv
	}
	return &zipfTable{cum: cum}
}

// draw returns a rank in [1, n]; rank 1 is the hottest key.
func (z *zipfTable) draw(r *rng64) uint64 {
	u := r.f64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return uint64(i + 1)
}
