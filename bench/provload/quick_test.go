package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets runFull start this test binary as provload: every run of a
// full run is a process of its own.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkFile, []byte) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b, data
}

// TestBenchmarkJSON holds the driver's file to this program's tables and
// to the limits the driver refuses a file outside of.
func TestBenchmarkJSON(t *testing.T) {
	b, data := readBenchmarkJSON(t)
	want, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	var got, exp any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &exp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("BENCHMARK.json is not what `go run ./bench/provload -schema` prints")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics in %d bytes", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(data))
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if b.RunSeconds != runSeconds || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// TestQuickRun drives the whole harness — all four workloads, untraced and
// traced, oracle and all — at -quick sizes, and checks the output schema:
// every workload and metric BENCHMARK.json names appears exactly once with
// a unit and a sample count, and nothing it does not name appears.
func TestQuickRun(t *testing.T) {
	b, _ := readBenchmarkJSON(t)
	var log bytes.Buffer
	results := t.TempDir()
	sum, err := runFull(runConfig{
		seed: 1, seconds: 0.25, quick: true, clients: 2,
		workDir: t.TempDir(), results: results, log: &log,
	}, 1)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !sum.correct() {
		t.Fatalf("the quick run disagreed with the oracle:\n%s", log.String())
	}
	// A full run makes every workload; the driver's file names the gated ones.
	var gated []string
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w.name)
		}
	}
	if len(sum.Workloads) != len(workloads) || len(b.Workloads) != len(gated) {
		t.Fatalf("%d workloads in the summary, %d in BENCHMARK.json", len(sum.Workloads), len(b.Workloads))
	}
	for i, name := range gated {
		if b.Workloads[i].Name != name {
			t.Errorf("gated workload %d is %s, BENCHMARK.json has %s", i, name, b.Workloads[i].Name)
		}
	}
	for i, ws := range sum.Workloads {
		if ws.Name != workloads[i].name {
			t.Errorf("workload %d of the summary is %s, want %s", i, ws.Name, workloads[i].name)
		}
		if ws.Attempted < 1 || ws.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", ws.Name, ws.Attempted, ws.Failed)
		}
		for _, set := range []struct {
			defs []metricDef
			got  map[string]repeated
			all  bool // every value is measured, never 0
		}{{b.EndToEnd, ws.EndToEnd, true}, {b.PerLayer, ws.PerLayer, false}} {
			if len(set.got) != len(set.defs) {
				t.Errorf("%s: %d metrics reported, %d named", ws.Name, len(set.got), len(set.defs))
			}
			for _, d := range set.defs {
				m, ok := set.got[d.Name]
				if !ok || m.Unit != d.Unit || len(m.Values) != 1 {
					t.Errorf("%s %s: reported %+v, want one value in %s", ws.Name, d.Name, m, d.Unit)
				}
				if set.all && (m.Samples < 1 || m.Median <= 0) {
					t.Errorf("%s %s: value %g from %d samples", ws.Name, d.Name, m.Median, m.Samples)
				}
				if n := strings.Count(log.String(), fmt.Sprintf("\n%-10s %-40s ", ws.Name, d.Name)); n != 1 {
					t.Errorf("%s %s printed %d times", ws.Name, d.Name, n)
				}
			}
		}
		if fi, err := os.Stat(results + "/trace-" + ws.Name + ".jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", ws.Name, err)
		}
	}
	data, err := json.Marshal(sum)
	if err != nil || !bytes.HasSuffix(data, []byte(`"claim":null}`)) {
		t.Errorf("the summary must end with \"claim\": null")
	}

	// The driver's line: exactly these keys, and exactly value and unit.
	line, err := json.Marshal(driverLine(&result{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {1.5, "s", 3}}}))
	if err != nil || string(line) != `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` {
		t.Errorf("driver line %s", line)
	}
}
