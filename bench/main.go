// Command bench is the repository's end-to-end benchmark. It runs one
// workload against the entry points a user has — orpd's HTTP API
// (serve.New behind a loopback listener, in this process) or the
// orpsolve path (core.Solve, then hsgraph.Write) — for a fixed number of
// seconds, checks every reply against the reference evaluator
// (EvaluateSlow), and prints the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it prints the per-layer metrics
// instead. See README.md for the workloads and the metrics.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload design|query|contend|scale --seed N
//	                  [--seconds 20] [--trace 0|1] [--out run.json]
//	                  [--trace-out spans.jsonl]
//	bash bench/run.sh --compare BASE_DIR HEAD_DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: design, query, contend or scale")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Int("seconds", 20, "length of the timed phase in seconds")
		out      = fs.String("out", "", "also write the run's result record (with results_digest) to this JSON file")
		traceOut = fs.String("trace-out", "", "traced runs: write every op's spans and job events as obs JSONL (orptrace renders it)")
		compare  = fs.Bool("compare", false, "compare the result records in two directories: --compare BASE_DIR HEAD_DIR")
		traced   bool
	)
	fs.Func("trace", "1 runs the traced variant and prints the per-layer metrics; 0 prints the end-to-end ones", func(s string) error {
		v, err := strconv.ParseBool(s)
		traced = v
		return err
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs BASE_DIR and HEAD_DIR")
			return 2
		}
		regressed, err := compareDirs(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 3
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: usage: --workload NAME --seed N [--seconds S] [--trace 0|1]")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rec, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, traced, *traceOut, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printRecord(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's result, as --out writes it and --compare reads it.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   int                    `json:"latency_samples"`
	Digest    string                 `json:"results_digest"`
	DigestOps int                    `json:"digest_results"`
}

// printRecord prints the metric lines and, last, the result object. A
// metric that is not a finite number fails the marshal, and the run.
func printRecord(w io.Writer, rec *record) error {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, d.name, strconv.FormatFloat(rec.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	fmt.Fprintf(w, "%s latency_samples %d count\n", rec.Workload, rec.Samples)
	fmt.Fprintf(w, "%s results_digest %s over %d results\n", rec.Workload, rec.Digest, rec.DigestOps)
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// runWorkload runs one workload: set-up (timed, setupRepeats times),
// the timed phase, verification and the metrics.
func runWorkload(w *workload, seed uint64, seconds time.Duration, traced bool, traceOut string, stderr io.Writer) (*record, error) {
	if err := os.MkdirAll(".bench_run", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_run", w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &runner{w: w, seed: seed, seconds: seconds, workers: defaultWorkers()}
	if w.name == "query" {
		if r.query, err = newQueryInputs(seed); err != nil {
			return nil, err
		}
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if r.h != nil {
			if err := r.h.close(); err != nil {
				return nil, err
			}
			r.h = nil
		}
		t0 := time.Now()
		if err := w.setup(r, filepath.Join(dir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if r.h != nil {
			r.h.close()
		}
	}()

	// A bound on the whole run, so a stuck op fails instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 2*seconds+90*time.Second)
	defer cancel()

	var p, ref *phaseOut
	in := traceIn{rows: evalM}
	if !traced {
		p = w.phase(ctx, r, "run", false)
	} else {
		if r.h != nil {
			if in.before, err = scrape(ctx, r.h); err != nil {
				return nil, err
			}
		}
		in.rt = startRuntimeSampler()
		p = w.phase(ctx, r, "run", true)
		in.rt.finish()
		if r.h != nil {
			if in.after, err = scrape(ctx, r.h); err != nil {
				return nil, err
			}
		}
		// The untraced reference phase behind trace.overhead_pct runs on
		// fresh inputs of the same mix.
		ref = w.phase(ctx, r, "ref", false)
		if r.h != nil {
			if err := fetchEvents(ctx, r.h, p.all); err != nil {
				return nil, err
			}
		}
		in.p, in.ref = p, ref
	}

	// Verification, after the timed phase: every op counts once in
	// attempted, and every failure — transport, status, timeout or a
	// reply that does not verify — once in failed.
	rec := &record{Workload: w.name, Seed: seed, Seconds: int(seconds.Seconds()), Trace: traced,
		Metrics: make(map[string]metricValue)}
	sym := 0
	if w.name == "scale" {
		sym = scaleSym
	}
	v := newVerifier(sym)
	all := append(append([]*op(nil), r.warm...), p.all...)
	if ref != nil {
		all = append(all, ref.all...)
	}
	for _, o := range all {
		v.check(o)
		rec.Attempted++
		if o.err != nil {
			rec.Failed++
			if rec.Failed <= 5 {
				fmt.Fprintf(stderr, "bench: %s op %s/%d failed: %v\n", o.kind, o.stream, o.index, o.err)
			}
		}
	}
	rec.Correct = rec.Failed == 0

	var values map[string]float64
	if traced {
		if values, err = perLayerMetrics(in); err != nil {
			return nil, err
		}
		if values["trace.span_coverage_min_pct"] < 95 {
			fmt.Fprintf(stderr, "bench: spans cover only %.1f%% of some op's wall time\n", values["trace.span_coverage_min_pct"])
		}
		if traceOut != "" {
			if err := writeTrace(traceOut, p.all); err != nil {
				return nil, err
			}
		}
	} else if values, err = endToEndMetrics(w, p, setups); err != nil {
		return nil, err
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for k, val := range values {
		rec.Metrics[k] = metricValue{Value: val, Unit: units[k]}
	}
	rec.Samples = len(latencies(p.fg))
	dops := p.digestOps()
	rec.Digest, rec.DigestOps = digest(dops), len(dops)
	return rec, nil
}
