package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"shrimp/internal/bench"
)

var (
	update = flag.Bool("update", false, "rewrite every golden file under results/ from the current code")
	ciRows = flag.Bool("ci", false, "also run the CI rows: -fig app, -fig meshscale and the examples")
)

// root is the repository root, relative to this package.
const root = "../.."

// golden is one row of the golden-output table: a committed file under
// results/ and the producer that writes it. A ci row is too slow for
// tier-1 and runs only under -ci.
type golden struct {
	file    string
	ci      bool
	produce func(w io.Writer) error
}

// goldens is the golden-output table: one row per file under results/
// except gated_coverage.txt, which make golden writes from a coverage run
// of the whole table.
func goldens() []golden {
	rows := []golden{
		{file: "manifest.txt", produce: bench.WriteManifest},
		{file: "shrimpbench_output.txt", produce: shrimpbench()},
		{file: "faults_output.txt", produce: shrimpbench("-fig", "faults")},
		{file: "partition_output.txt", produce: shrimpbench("-fig", "partition")},
		{file: "svm_output.txt", produce: shrimpbench("-fig", "svm")},
		{file: "meshsmoke_output.txt", produce: shrimpbench("-fig", "meshsmoke")},
		{file: "app_output.txt", ci: true, produce: shrimpbench("-fig", "app")},
		{file: "meshscale_output.txt", ci: true, produce: shrimpbench("-fig", "meshscale")},
	}
	for _, id := range bench.FigureIDs() {
		rows = append(rows, golden{file: id + ".csv", produce: func(w io.Writer) error {
			_, err := io.WriteString(w, bench.RunFigures([]string{id}, defaultIters)[0].CSV())
			return err
		}})
	}
	for _, s := range []string{"fig3", "app", "comb"} {
		rows = append(rows, golden{file: "stats_" + s + ".txt", produce: shrimpbench("-fig", s, "-stats")})
	}
	dirs, _ := filepath.Glob(filepath.Join(root, "examples", "*")) // fails only on a malformed pattern
	for _, d := range dirs {
		rows = append(rows, golden{file: "example_" + filepath.Base(d) + ".txt", ci: true, produce: example(filepath.Base(d))})
	}
	return rows
}

// shrimpbench runs the command in-process with args and writes its stdout;
// a nonzero exit fails the row with the command's stderr.
func shrimpbench(args ...string) func(io.Writer) error {
	return func(w io.Writer) error {
		var stderr bytes.Buffer
		if code := run(args, w, &stderr); code != 0 {
			return fmt.Errorf("shrimpbench %s: exit %d: %s", strings.Join(args, " "), code, &stderr)
		}
		return nil
	}
}

// example runs `go run ./examples/name` from the repository root and
// writes its stdout.
func example(name string) func(io.Writer) error {
	return func(w io.Writer) error {
		var stderr bytes.Buffer
		cmd := exec.Command("go", "run", "./examples/"+name)
		cmd.Dir, cmd.Stdout, cmd.Stderr = root, w, &stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("go run ./examples/%s: %v: %s", name, err, &stderr)
		}
		return nil
	}
}

// TestGolden is the one check on the committed results: it runs each row
// of the golden-output table and compares its output with the row's file
// byte for byte, naming the file and the first line that differs. -ci adds
// the CI rows; -update rewrites every file instead (make golden). Every
// file under results/ must have a row.
func TestGolden(t *testing.T) {
	rows := goldens()
	has := map[string]bool{"gated_coverage.txt": true}
	for _, row := range rows {
		has[row.file] = true
	}
	files, err := os.ReadDir(filepath.Join(root, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !has[f.Name()] {
			t.Errorf("results/%s has no row in the golden table", f.Name())
		}
	}
	for _, row := range rows {
		t.Run(row.file, func(t *testing.T) {
			if row.ci && !*ciRows {
				t.Skip("CI row: run with -ci")
			}
			var got bytes.Buffer
			if err := row.produce(&got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(root, "results", row.file)
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("results/%s differs at %s\nif the change is intended, run make golden and explain every moved line",
					row.file, firstDiff(got.String(), string(want)))
			}
		})
	}
}

// firstDiff names the first line (1-based) at which got and want differ,
// with both sides quoted.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return strconv.Quote(ls[i])
		}
		return "(no line)"
	}
	return fmt.Sprintf("line %d:\nnow:       %s\ncommitted: %s", i+1, line(gl), line(wl))
}
