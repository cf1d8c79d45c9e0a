// Command orphist queries the durable run history written by orpd
// (-store), orpsolve (-store) and orpfault (-store): list recent runs,
// inspect one record, compute the best-known h-ASPL leaderboard per
// (n, r) cell, compare two records, check a result for regression
// against the stored best, or compact a log that has accumulated
// corrupt or foreign regions.
//
// Usage:
//
//	orphist -store runs/ list [-n 20] [-tool orpd] [-kind anneal] [-json]
//	orphist -store runs/ show [-result] [-json] r00000042
//	orphist -store runs/ best [-by-m] [-json]
//	orphist -store runs/ compare [-json] r00000001 r00000042
//	orphist -store runs/ check [-by-m] [-json] [r00000042 | latest]
//	orphist -store runs/ compact
//
// check exits 3 when the candidate regresses on the stored best of its
// cell (the convention bench/run.sh --compare uses), so CI can gate on it.
// All query subcommands open the store read-only; a missing store is an
// empty history, not an error. Skipped regions (torn tail after a
// crash, records from a different binary version) are reported on
// stderr and never fatal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/runstore"
)

func main() {
	storeDir := flag.String("store", "", "run-store directory (as given to orpd/orpsolve/orpfault -store)")
	version := cliutil.VersionFlag()
	flag.Usage = usage
	flag.Parse()
	cliutil.ExitIfVersion("orphist", version)
	if *storeDir == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "list":
		runList(*storeDir, args)
	case "show":
		runShow(*storeDir, args)
	case "best":
		runBest(*storeDir, args)
	case "compare":
		runCompare(*storeDir, args)
	case "check":
		runCheck(*storeDir, args)
	case "compact":
		runCompact(*storeDir, args)
	default:
		fmt.Fprintf(os.Stderr, "orphist: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: orphist -store DIR <subcommand> [flags] [args]

subcommands:
  list     recent runs, newest first
  show     one record in full
  best     best-known h-ASPL leaderboard per (n, r) cell
  compare  two records side by side
  check    regression check of a record against its cell's stored best (exit 3 on regression)
  compact  rewrite the log, dropping corrupt or foreign regions

run "orphist -store DIR <subcommand> -h" for subcommand flags.
`)
}

// open opens the store read-only and surfaces scan skips: a run store is
// shared across binary versions and survives crashes, so "some regions
// were skipped" is a warning the user should see, never a failure.
func open(dir string) *runstore.Store {
	st, err := runstore.OpenRead(dir)
	if err != nil {
		fatal(err)
	}
	warnSkips(st)
	return st
}

func warnSkips(st *runstore.Store) {
	if s := st.Stats(); s.SkippedRecords > 0 {
		fmt.Fprintf(os.Stderr, "orphist: warning: skipped %d unreadable region(s), %d bytes (torn tail, corruption or foreign record versions); \"orphist -store %s compact\" drops them\n",
			s.SkippedRecords, s.SkippedBytes, st.Dir())
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "orphist: %v\n", err)
	os.Exit(1)
}

// subFlags builds a subcommand flag set that exits 2 on bad flags.
func subFlags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("orphist "+name, flag.ExitOnError)
	return fs
}

func runList(dir string, args []string) {
	fs := subFlags("list")
	n := fs.Int("n", 20, "show at most this many records (0 = all)")
	tool := fs.String("tool", "", "only records from this tool (orpd, orpsolve, orpfault)")
	kind := fs.String("kind", "", "only records of this kind (eval, anneal, sweep)")
	jsonOut := fs.Bool("json", false, "machine-readable output (one record per line)")
	fs.Parse(args)
	st := open(dir)
	recs := st.Recent(0)
	filtered := recs[:0]
	for _, r := range recs {
		if (*tool == "" || r.Tool == *tool) && (*kind == "" || r.Kind == *kind) {
			filtered = append(filtered, r)
		}
	}
	if *n > 0 && len(filtered) > *n {
		filtered = filtered[:*n]
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range filtered {
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
		}
		return
	}
	if len(filtered) == 0 {
		fmt.Println("no records")
		return
	}
	fmt.Printf("%-10s  %-19s  %-8s  %-6s  %6s %4s %5s  %10s  %9s\n",
		"ID", "TIME", "TOOL", "KIND", "N", "R", "M", "H-ASPL", "WALL")
	for _, r := range filtered {
		fmt.Printf("%-10s  %-19s  %-8s  %-6s  %6d %4d %5d  %10s  %8.2fs\n",
			r.ID, time.Unix(0, r.Unix).Format("2006-01-02 15:04:05"),
			r.Tool, r.Kind, r.N, r.R, r.M, hasplStr(r), r.WallSeconds)
	}
}

// hasplStr renders the record's h-ASPL, or the disconnection marker.
func hasplStr(r runstore.Record) string {
	if !r.Metrics.Connected {
		return "disc"
	}
	return fmt.Sprintf("%.6f", r.Metrics.HASPL)
}

func runShow(dir string, args []string) {
	fs := subFlags("show")
	result := fs.Bool("result", false, "print the record's raw result JSON to stdout instead of the summary")
	jsonOut := fs.Bool("json", false, "machine-readable record (result bytes included under \"result\")")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("show needs exactly one record ID"))
	}
	st := open(dir)
	rec, ok := st.Get(fs.Arg(0))
	if !ok {
		fatal(fmt.Errorf("no record %q (try \"orphist -store %s list\")", fs.Arg(0), dir))
	}
	switch {
	case *result:
		if len(rec.Result) == 0 {
			fatal(fmt.Errorf("record %s carries no result bytes", rec.ID))
		}
		os.Stdout.Write(rec.Result)
		if rec.Result[len(rec.Result)-1] != '\n' {
			fmt.Println()
		}
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			runstore.Record
			Result json.RawMessage `json:"result,omitempty"`
		}{rec, rec.ResultJSON()}); err != nil {
			fatal(err)
		}
	default:
		printRecord(rec)
	}
}

func printRecord(r runstore.Record) {
	fmt.Printf("record       %s\n", r.ID)
	fmt.Printf("time         %s\n", time.Unix(0, r.Unix).Format(time.RFC3339))
	fmt.Printf("tool/kind    %s/%s\n", r.Tool, r.Kind)
	if r.Build != "" {
		fmt.Printf("build        %s\n", r.Build)
	}
	fmt.Printf("cell         n=%d r=%d m=%d\n", r.N, r.R, r.M)
	fmt.Printf("seed         %d\n", r.Seed)
	if r.Symmetry != 0 {
		fmt.Printf("symmetry     %d\n", r.Symmetry)
	}
	if r.EvalMode != "" {
		fmt.Printf("eval mode    %s\n", r.EvalMode)
	}
	if r.Workers != 0 {
		fmt.Printf("workers      %d\n", r.Workers)
	}
	if r.Key != "" {
		fmt.Printf("cache key    %s\n", r.Key)
	}
	if r.Fingerprint != "" {
		fmt.Printf("fingerprint  %s\n", r.Fingerprint)
	}
	fmt.Printf("h-ASPL       %s (diameter %d, connected %v)\n", hasplStr(r), r.Metrics.Diameter, r.Metrics.Connected)
	fmt.Printf("total path   %d over %d pairs\n", r.Metrics.TotalPath, r.Metrics.ReachablePairs)
	if len(r.EnergyTrace) > 0 {
		fmt.Printf("energy trace %d samples, stride %d: %d -> %d\n",
			len(r.EnergyTrace), r.EnergyTraceStride,
			int64(r.EnergyTrace[0]), int64(r.EnergyTrace[len(r.EnergyTrace)-1]))
	}
	fmt.Printf("wall         %.3fs", r.WallSeconds)
	if r.CPUSeconds > 0 {
		fmt.Printf(" (cpu %.3fs)", r.CPUSeconds)
	}
	fmt.Println()
	for _, p := range r.Phases {
		fmt.Printf("  phase %-18s %9.3fs\n", p.Name, p.Seconds)
	}
	if len(r.Result) > 0 {
		fmt.Printf("result       %d bytes (orphist show -result %s)\n", len(r.Result), r.ID)
	}
}

func runBest(dir string, args []string) {
	fs := subFlags("best")
	byM := fs.Bool("by-m", false, "split leaderboard cells by switch count m as well")
	jsonOut := fs.Bool("json", false, "machine-readable leaderboard")
	fs.Parse(args)
	st := open(dir)
	entries := runstore.Best(st.Records(), *byM)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entries); err != nil {
			fatal(err)
		}
		return
	}
	if len(entries) == 0 {
		fmt.Println("no eligible records")
		return
	}
	fmt.Printf("%-20s  %10s  %-10s  %-8s  %-19s\n", "CELL", "H-ASPL", "ID", "TOOL", "TIME")
	for _, e := range entries {
		fmt.Printf("%-20s  %10.6f  %-10s  %-8s  %-19s\n",
			e.Cell, e.Record.Metrics.HASPL, e.Record.ID, e.Record.Tool,
			time.Unix(0, e.Record.Unix).Format("2006-01-02 15:04:05"))
	}
}

func runCompare(dir string, args []string) {
	fs := subFlags("compare")
	jsonOut := fs.Bool("json", false, "machine-readable comparison")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("compare needs exactly two record IDs"))
	}
	st := open(dir)
	a, ok := st.Get(fs.Arg(0))
	if !ok {
		fatal(fmt.Errorf("no record %q", fs.Arg(0)))
	}
	b, ok := st.Get(fs.Arg(1))
	if !ok {
		fatal(fmt.Errorf("no record %q", fs.Arg(1)))
	}
	delta := 0.0
	if a.Metrics.HASPL > 0 {
		delta = (b.Metrics.HASPL - a.Metrics.HASPL) / a.Metrics.HASPL * 100
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			A        runstore.Record `json:"a"`
			B        runstore.Record `json:"b"`
			DeltaPct float64         `json:"deltaPct"`
		}{a, b, delta}); err != nil {
			fatal(err)
		}
		return
	}
	row := func(name string, f func(runstore.Record) string) {
		fmt.Printf("%-12s  %-28s  %-28s\n", name, f(a), f(b))
	}
	fmt.Printf("%-12s  %-28s  %-28s\n", "", a.ID, b.ID)
	row("time", func(r runstore.Record) string { return time.Unix(0, r.Unix).Format("2006-01-02 15:04:05") })
	row("tool/kind", func(r runstore.Record) string { return r.Tool + "/" + r.Kind })
	row("cell", func(r runstore.Record) string { return fmt.Sprintf("n=%d r=%d m=%d", r.N, r.R, r.M) })
	row("seed", func(r runstore.Record) string { return fmt.Sprintf("%d", r.Seed) })
	row("h-ASPL", hasplStr)
	row("diameter", func(r runstore.Record) string { return fmt.Sprintf("%d", r.Metrics.Diameter) })
	row("wall", func(r runstore.Record) string { return fmt.Sprintf("%.3fs", r.WallSeconds) })
	fmt.Printf("%-12s  %+.4f%% (b vs a, h-ASPL; negative is better)\n", "delta", delta)
}

func runCheck(dir string, args []string) {
	fs := subFlags("check")
	byM := fs.Bool("by-m", false, "split cells by switch count m as well")
	jsonOut := fs.Bool("json", false, "machine-readable verdict")
	fs.Parse(args)
	if fs.NArg() > 1 {
		fatal(fmt.Errorf("check takes at most one record ID (default: latest)"))
	}
	st := open(dir)
	var candidate runstore.Record
	if fs.NArg() == 0 || fs.Arg(0) == "latest" {
		recent := st.Recent(1)
		if len(recent) == 0 {
			fatal(fmt.Errorf("store is empty; nothing to check"))
		}
		candidate = recent[0]
	} else {
		var ok bool
		candidate, ok = st.Get(fs.Arg(0))
		if !ok {
			fatal(fmt.Errorf("no record %q", fs.Arg(0)))
		}
	}
	res := runstore.Check(st.Records(), candidate, *byM)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		switch {
		case res.Best == nil:
			fmt.Printf("PASS  %s is the first eligible result in cell %s\n", candidate.ID, res.Cell)
		case res.Regressed:
			fmt.Printf("REGRESSION  %s h-ASPL %s vs best %s (%s) %.6f: %+.4f%%\n",
				candidate.ID, hasplStr(candidate), res.Best.ID, res.Best.Tool,
				res.Best.Metrics.HASPL, res.DeltaPct)
		default:
			fmt.Printf("PASS  %s h-ASPL %s vs best %s %.6f: %+.4f%%\n",
				candidate.ID, hasplStr(candidate), res.Best.ID,
				res.Best.Metrics.HASPL, res.DeltaPct)
		}
	}
	if res.Regressed {
		os.Exit(3) // the bench/run.sh --compare convention: regression = exit 3
	}
}

func runCompact(dir string, args []string) {
	fs := subFlags("compact")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("compact takes no arguments"))
	}
	st, err := runstore.Open(dir)
	if err != nil {
		fatal(err)
	}
	defer st.Close()
	before := st.Stats()
	if err := st.Compact(); err != nil {
		fatal(err)
	}
	after := st.Stats()
	fmt.Printf("compacted %s: %d records, %d -> %d bytes",
		dir, after.Records, before.Bytes, after.Bytes)
	if before.SkippedRecords > 0 {
		fmt.Printf(" (dropped %d unreadable region(s), %d bytes)",
			before.SkippedRecords, before.SkippedBytes)
	}
	fmt.Println()
}
