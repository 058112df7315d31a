// Command provload is the end-to-end and per-layer benchmark of the provd
// serving path: it builds each workload's store, assembles a provd node in
// process on a loopback listener, drives it, checks its answers against an
// oracle, and prints every metric by name with unit and sample count. See
// bench/README.md.
//
//	go run ./bench/provload -seed 1 -out bench/results/run.json   # all four workloads, untraced then traced
//	go run ./bench/provload -repeat 5 -out bench/results/baseline.json
//	go run ./bench/provload -compare a.json b.json
//	go run ./bench/provload -workload lineage -seed 7 -seconds 10 -trace 0   # one run, as the driver asks for it
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"syscall"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload once and print one JSON result line (ingest, lineage, analytics, mixed)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "length of the timed phase of each run")
		trace   = flag.Int("trace", 0, "with -workload: 1 runs the traced stack and reports the per-layer metrics")
		out     = flag.String("out", "", "write the JSON summary of a full run here")
		repeat  = flag.Int("repeat", 1, "repeat the full run N times and report medians and spreads")
		compare = flag.Bool("compare", false, "compare two JSON summaries: provload -compare a.json b.json")
		quick   = flag.Bool("quick", false, "tiny sizes and sub-second phases: the same code paths in a few seconds")
		dir     = flag.String("dir", ".bench_build/provload", "directory the store directories are created (and removed) in")
		results = flag.String("results", "bench/results", "directory trace-<workload>.jsonl files are written to")
	)
	schema := flag.Bool("schema", false, "print BENCHMARK.json, the driver's copy of this program's workloads and metrics, and exit")
	flag.Parse()
	// The handler's slow-request log has nothing to say to a benchmark.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	if *schema {
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two summary files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		seed: uint64(*seed), seconds: *seconds, quick: *quick, clients: min(runtime.NumCPU(), 4),
		workDir: *dir, results: *results, log: os.Stdout,
	}
	if *quick && !isSet("seconds") {
		cfg.seconds = 0.25
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fatal(err)
	}

	if *name != "" {
		cfg.w = findWorkload(*name)
		if cfg.w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		cfg.trace = *trace != 0
		res, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, res)
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	sum, err := runFull(cfg, *repeat)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, sum); err != nil {
			fatal(err)
		}
		fmt.Printf("# summary written to %s\n", *out)
	}
	if !sum.correct() {
		fatal(errors.New("answers differ from the oracle or operations failed"))
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "provload:", err)
	os.Exit(2)
}

// fsType names the filesystem under dir: fsync cost is the filesystem's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
