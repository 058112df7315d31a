// Command provbench runs the paper-reproduction experiment suite (E1–E12,
// internal/experiments) and prints each experiment's table.
//
// Usage:
//
//	provbench             # run everything
//	provbench -e E4,E7    # run selected experiments
//	provbench -list       # list experiments
//	provbench -json DIR   # also write machine-readable BENCH_<ID>.json
//
// With -json, each experiment's structured metrics land in
// DIR/BENCH_<ID>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		which   = flag.String("e", "", "comma-separated experiment IDs (default: all)")
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		jsonDir = flag.String("json", "", "write BENCH_<ID>.json files to this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Suite {
			fmt.Printf("%-3s %s\n", e.ID, e.Title)
		}
		return
	}

	var results []experiments.Result
	if *which == "" {
		results = experiments.All()
	} else {
		for _, id := range strings.Split(*which, ",") {
			r, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			results = append(results, r)
		}
	}
	for _, r := range results {
		fmt.Printf("=== %s: %s ===\n%s\n", r.ID, r.Title, r.Table)
	}
	if *jsonDir != "" {
		if err := writeJSON(*jsonDir, results); err != nil {
			fmt.Fprintln(os.Stderr, "provbench:", err)
			os.Exit(1)
		}
	}
}

// benchFile is the on-disk shape of one BENCH_<ID>.json record.
type benchFile struct {
	ID      string               `json:"id"`
	Title   string               `json:"title"`
	Metrics []experiments.Metric `json:"metrics"`
	Table   string               `json:"table"`
}

func writeJSON(dir string, results []experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		data, err := json.MarshalIndent(benchFile{
			ID: r.ID, Title: r.Title, Metrics: r.Metrics, Table: r.Table,
		}, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+r.ID+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "provbench: wrote %s\n", path)
	}
	return nil
}
