package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain runs provctl's main instead of the tests when the test binary
// is re-executed by run below, so the command tests see real exit
// statuses and output streams.
func TestMain(m *testing.M) {
	if os.Getenv("PROVCTL_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run executes provctl with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PROVCTL_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("provctl %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

// TestStoreCommands drives the subcommands that open a store directory,
// in order, over one temp store holding the medical-imaging run: each
// must exit with the expected status and print a line starting with the
// expected text on the expected stream. query -explain is the CLI face of
// the PQL planner path; its line pins where the WHERE runs. run takes no
// automatic-checkpoint flag, and checkpoint leaves checkpoint.json behind.
func TestStoreCommands(t *testing.T) {
	dir := t.TempDir()
	wf, _, code := run(t, "demo", "medimg")
	if code != 0 {
		t.Fatalf("demo: exit %d", code)
	}
	wfPath := filepath.Join(dir, "wf.json")
	if err := os.WriteFile(wfPath, []byte(wf), 0o644); err != nil {
		t.Fatal(err)
	}
	st := filepath.Join(dir, "store")
	for _, c := range []struct {
		name   string
		args   []string
		code   int
		stderr bool // the line is on stderr, not stdout
		line   string
	}{
		{"run", []string{"run", "-store", st, wfPath}, 0, false, "run run-000001: status=ok"},
		{"run-checkpoint-every", []string{"run", "-store", st, "-checkpoint-every", "1", wfPath},
			1, true, "provctl: flag provided but not defined: -checkpoint-every"},
		{"query", []string{"query", "-store", st, "SELECT COUNT(*) FROM executions"}, 0, false, "4"},
		{"query-explain", []string{"query", "-store", st, "-explain",
			"SELECT module, artifact FROM executions JOIN gens ON executions.id = exec WHERE status = 'ok'"},
			0, true, "  select(executions)"},
		{"query-invalid", []string{"query", "-store", st, "SELECT nope FROM runs"},
			1, true, `provctl: pql: no column "nope" (have id, workflow, hash, agent, status)`},
		{"lineage", []string{"lineage", "-store", st, "art-000003"}, 0, false, "exec-000002"},
		{"checkpoint", []string{"checkpoint", "-store", st}, 0, false, "checkpoint written: 1 runs, 18 events"},
		{"export", []string{"export", "-store", st, "-run", "run-000001", "-format", "dot"}, 0, false, `digraph "run_run-000001" {`},
	} {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := run(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, stdout, stderr)
			}
			out := stdout
			if c.stderr {
				out = stderr
			}
			for _, l := range strings.Split(out, "\n") {
				if strings.HasPrefix(l, c.line) {
					return
				}
			}
			t.Fatalf("no line starting %q in:\n%s", c.line, out)
		})
	}
	if _, err := os.Stat(filepath.Join(st, "checkpoint.json")); err != nil {
		t.Fatalf("checkpoint wrote no snapshot: %v", err)
	}
}

func TestWatchBackoffGrowsAndCaps(t *testing.T) {
	// jitter 0.5 is the neutral draw: scale factor exactly 1.
	want := []time.Duration{
		500 * time.Millisecond,
		1 * time.Second,
		2 * time.Second,
		4 * time.Second,
		8 * time.Second,
		15 * time.Second, // capped, not 16s
		15 * time.Second,
	}
	for i, w := range want {
		if got := watchBackoff(i+1, 0.5); got != w {
			t.Errorf("watchBackoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestWatchBackoffJitterBounds(t *testing.T) {
	for _, attempt := range []int{1, 3, 10} {
		lo := watchBackoff(attempt, 0)
		hi := watchBackoff(attempt, 0.999999)
		mid := watchBackoff(attempt, 0.5)
		if lo != time.Duration(float64(mid)*0.75) {
			t.Errorf("attempt %d: low jitter %v, want 75%% of %v", attempt, lo, mid)
		}
		if hi >= time.Duration(float64(mid)*1.25)+time.Millisecond {
			t.Errorf("attempt %d: high jitter %v exceeds 125%% of %v", attempt, hi, mid)
		}
		if lo >= hi {
			t.Errorf("attempt %d: jitter range degenerate: [%v, %v]", attempt, lo, hi)
		}
	}
}
