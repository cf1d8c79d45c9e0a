package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bounds"
	"repro/internal/stats"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the
// same names and units (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"haspl_gap_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"serve.admission_ms", "ms"},
	{"serve.cache_lookup_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p95_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.encode_bytes", "B"},
	{"serve.http_ms", "ms"},
	{"serve.hit_latency_p99_ms", "ms"},
	{"serve.inline_latency_p99_ms", "ms"},
	{"serve.miss_latency_p99_ms", "ms"},
	{"serve.job_span_coverage_pct", "%"},
	{"serve.preemptions_per_job", "count"},
	{"runstore.appends_per_op", "count"},
	{"opt.init_ms", "ms"},
	{"opt.loop_ms", "ms"},
	{"opt.loop_moves_per_s", "1/s"},
	{"opt.job_moves_per_s", "1/s"},
	{"opt.checkpoint_ms", "ms"},
	{"opt.checkpoints_per_job", "count"},
	{"opt.resume_load_ms", "ms"},
	{"opt.final_eval_ms", "ms"},
	{"opt.accept_ratio", "ratio"},
	{"hsgraph.inc_dirty_fraction", "ratio"},
	{"hsgraph.inc_swept_per_move", "count"},
	{"hsgraph.inc_swept_over_dirty", "ratio"},
	{"hsgraph.inc_full_rebuilds", "count"},
	{"hsgraph.inc_peek_reuse_ratio", "ratio"},
	{"hsgraph.eval_run_ms", "ms"},
	{"hsgraph.write_ms", "ms"},
	{"core.pre_anneal_s", "s"},
	{"obs.events_per_op", "count"},
	{"obs.event_bytes_per_op", "B"},
	{"go.gc_cpu_pct", "%"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.heap_peak_mb", "MB"},
	{"client.gen_lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.span_coverage_min_pct", "%"},
}

// tailCandidates are the percentiles latency_tail_ms may use, in
// thousandths.
var tailCandidates = []int{999, 990, 950, 900, 800, 750, 500}

// tailPercentile is the highest candidate percentile with at least ten
// of n samples beyond it, or 100 (the maximum) when n is too small for
// any. Each workload fixes its percentile from its nominal op count, so
// the metric's definition never changes with how many ops a run fits.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 100
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// latencies returns the latency in ms of every successful op.
func latencies(ops []*op) []float64 {
	var out []float64
	for _, o := range ops {
		if o.err == nil {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

// throughput is completed closed-loop ops per second, from the phase
// start to the last counted completion, so a partly finished op at the
// end adds no rounding error.
func throughput(p *phaseOut) float64 {
	n, last := 0, p.closedFrom
	for _, o := range p.closed {
		if o.err == nil && !o.done.After(p.closedTo) {
			n++
			if o.done.After(last) {
				last = o.done
			}
		}
	}
	if n == 0 || !last.After(p.closedFrom) {
		return 0
	}
	return float64(n) / last.Sub(p.closedFrom).Seconds()
}

// hasplGap is the mean of 100·(h-ASPL − Thm 2 bound)/bound over the
// results of the seed-fixed prefix: anneal results where the workload
// designs topologies, eval results where it only queries them.
func hasplGap(p *phaseOut) float64 {
	var sum float64
	var n int
	anneals := false
	for _, o := range p.digestOps() {
		anneals = anneals || o.designs()
	}
	for _, o := range p.digestOps() {
		if anneals && !o.designs() {
			continue
		}
		s, ok := summarize(o)
		if !ok {
			continue
		}
		lb := bounds.HASPLLowerBound(s.Graph.Order, s.Graph.Radix)
		sum += 100 * (s.Graph.HASPL - lb) / lb
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// endToEndMetrics computes the end-to-end metrics of an untraced phase.
func endToEndMetrics(w *workload, p *phaseOut, setup []float64) (map[string]float64, error) {
	lat := latencies(p.fg)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"latency_p50_ms":   stats.Percentile(lat, 50),
		"latency_tail_ms":  stats.Percentile(lat, w.tail),
		"throughput_ops_s": throughput(p),
		"haspl_gap_pct":    hasplGap(p),
		"peak_rss_mb":      rss,
		"setup_s":          stats.Percentile(setup, 50),
	}, nil
}
