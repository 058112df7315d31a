package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// printMetrics prints a run's metrics by name, in schema order, with unit
// and sample count.
func printMetrics(w io.Writer, res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-10s %-40s %16.6g %-6s n=%d\n", res.Workload, d.Name, m.Value, m.Unit, m.Samples)
	}
}

// driverLine is the one-line result the benchmark driver reads: exactly
// these keys, and each metric exactly a value and a unit.
func driverLine(res *result) any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(res.Metrics))
	for name, m := range res.Metrics {
		ms[name] = vu{m.Value, m.Unit}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms}
}

// repeated is one metric over the repeats of a full run.
type repeated struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // inter-quartile distance ÷ median; 0 with fewer than two values
	Values  []float64 `json:"values"`
	Samples int       `json:"samples"` // behind the last value
}

// workloadSummary is one workload's row block in the summary.
type workloadSummary struct {
	Name      string              `json:"name"`
	Why       string              `json:"why"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Mismatch  string              `json:"mismatch,omitempty"`
	EndToEnd  map[string]repeated `json:"end_to_end"`
	PerLayer  map[string]repeated `json:"per_layer"`
}

// summary is the JSON a full run writes. It claims nothing: a baseline is
// a measurement, and "claim" is there so a reader looking for one finds
// null.
type summary struct {
	Seed      uint64            `json:"seed"`
	Clients   int               `json:"clients"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick"`
	Repeats   int               `json:"repeats"`
	FS        string            `json:"filesystem"`
	Flush     string            `json:"flush_policy"`
	Go        string            `json:"go"`
	Workloads []workloadSummary `json:"workloads"`
	Claim     *string           `json:"claim"`
}

func (s *summary) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// childEnv marks a process started by runFull; the package's TestMain turns
// a test binary that sees it into provload itself.
const childEnv = "PROVLOAD_CHILD"

// runChild makes one run in a process of its own, as the driver does. What
// a run leaves behind in a process — the obs registry's gauge callbacks
// keep the last follower's whole store reachable, and a larger heap paces
// the collector differently — moved the next workload's numbers by tens of
// percent when one process made every run.
func runChild(cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.workDir, fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(out)
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", cfg.w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
		"-dir", cfg.workDir, "-results", cfg.results, "-out", out,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	// Everything but the last line, which is the driver's copy of the result.
	if i := bytes.LastIndexByte(bytes.TrimRight(stdout, "\n"), '\n'); i >= 0 {
		cfg.log.Write(stdout[:i+1])
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("run failed (%v) and left no result", runErr)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runFull runs every workload untraced and then traced, `repeats` times.
func runFull(cfg runConfig, repeats int) (*summary, error) {
	sum := &summary{
		Seed: cfg.seed, Clients: cfg.clients, Seconds: cfg.seconds, Quick: cfg.quick, Repeats: repeats,
		FS: fsType(cfg.workDir), Flush: "durability=group (one fsync per WAL batch)", Go: runtime.Version(),
	}
	for _, w := range workloads {
		sum.Workloads = append(sum.Workloads, workloadSummary{
			Name: w.name, Why: w.why, Correct: true,
			EndToEnd: map[string]repeated{}, PerLayer: map[string]repeated{},
		})
	}
	for rep := 0; rep < repeats; rep++ {
		for i, w := range workloads {
			ws := &sum.Workloads[i]
			for _, traced := range []bool{false, true} {
				c := cfg
				c.w, c.trace = w, traced
				res, err := runChild(c)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.name, err)
				}
				ws.Correct = ws.Correct && res.Correct
				ws.Attempted += res.Attempted
				ws.Failed += res.Failed
				if ws.Mismatch == "" {
					ws.Mismatch = res.Mismatch
				}
				into := ws.EndToEnd
				if traced {
					into = ws.PerLayer
				}
				for name, m := range res.Metrics {
					r := into[name]
					r.Unit, r.Samples = m.Unit, m.Samples
					r.Values = append(r.Values, m.Value)
					r.Median, r.Spread = median(r.Values), spread(r.Values)
					into[name] = r
				}
			}
		}
	}
	return sum, nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so
// the spreads here are the ones the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func loadSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, per (end-to-end metric, workload), both medians,
// how much worse b is than a as a share of a, the bound, and a verdict:
// ok, worse (beyond the bound), or unresolved (either side's own spread is
// wider than the bound, so the bound cannot be told from noise). An ungated
// workload's rows are printed and decide nothing.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSummary(pathB)
	if err != nil {
		return false, err
	}
	if a.Clients != b.Clients || a.Seconds != b.Seconds || a.Quick != b.Quick {
		fmt.Fprintf(w, "# warning: runs differ in clients/seconds/quick (%d/%g/%v vs %d/%g/%v): not comparable\n",
			a.Clients, a.Seconds, a.Quick, b.Clients, b.Seconds, b.Quick)
	}
	byName := map[string]workloadSummary{}
	for _, ws := range b.Workloads {
		byName[ws.Name] = ws
	}
	fmt.Fprintf(w, "%-10s %-26s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "spread", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		def := findWorkload(wa.Name)
		gated := def != nil && !def.ungated
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			by := ratio(mb.Median-ma.Median, ma.Median)
			if d.Better == "higher" {
				by = -by
			}
			noise := max(ma.Spread, mb.Spread)
			verdict := "ok"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case by > d.Bound && gated:
				verdict = "worse"
				worse = true
			case by > d.Bound:
				verdict = "worse (ungated)"
			}
			fmt.Fprintf(w, "%-10s %-26s %14.6g %14.6g %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wa.Name, d.Name, ma.Median, mb.Median, by*100, d.Bound*100, noise*100, verdict)
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-10s incorrect answers: a correct=%v, b correct=%v\n", wa.Name, wa.Correct, wb.Correct)
			worse = true
		}
	}
	return worse, nil
}
