package main

import "testing"

// A buffer length or count below one would print NaN bandwidth or panic
// in the allocator, and a drop probability outside [0, 1) is no
// probability; all must be refused before the stream runs.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		buflen, numbufs int
		drop            float64
		ok              bool
	}{
		{7168, 64, 0, true},
		{1, 1, 0.01, true},
		{0, 64, 0, false},
		{-5, 64, 0, false},
		{7168, 0, 0, false},
		{7168, -1, 0, false},
		{7168, 64, -0.1, false},
		{7168, 64, 1, false},
	} {
		if err := checkFlags(tc.buflen, tc.numbufs, tc.drop); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %v) = %v, want ok=%v", tc.buflen, tc.numbufs, tc.drop, err, tc.ok)
		}
	}
}
