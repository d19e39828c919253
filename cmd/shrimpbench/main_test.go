package main

import "testing"

// -iters divides every figure's measured time, so a count below one would
// print NaN or negative tables; it must be refused before anything runs.
func TestCheckIters(t *testing.T) {
	for _, tc := range []struct {
		iters int
		ok    bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{8, true},
	} {
		if err := checkIters(tc.iters); (err == nil) != tc.ok {
			t.Errorf("checkIters(%d) = %v, want ok=%v", tc.iters, err, tc.ok)
		}
	}
}
