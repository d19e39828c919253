package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestCommittedOutput runs the default mode (all, at the default -iters)
// and requires its stdout to match results/shrimpbench_output.txt byte for
// byte: the peak numbers, every figure table, ttcp, the RPC baseline and
// the ablations. A change that moves any of them regenerates the file with
// `go run ./cmd/shrimpbench > results/shrimpbench_output.txt`.
func TestCommittedOutput(t *testing.T) {
	path := filepath.Join("..", "..", "results", "shrimpbench_output.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	runErr := runAll(options{iters: defaultIters})
	os.Stdout = stdout
	if runErr != nil {
		t.Fatal(runErr)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	out.Close()
	if string(got) == string(want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) || i >= len(wl) {
			t.Fatalf("%s differs from the run at line %d:\ngot:  %q\nwant: %q", path, i+1, g, w)
		}
	}
}
