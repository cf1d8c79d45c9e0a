package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// The benchmark's own spans around each op. Every other span in a trace
// was emitted by the program.
var clientSpans = map[string]bool{
	"client.op": true, "client.wait": true, "http.submit": true, "http.follow": true,
	"http.get": true, "core.solve": true, "hsgraph.write": true,
}

// fetchEvents gives every served op its job event stream. Jobs that were
// followed already hold it; cache hits are fetched now, after the timed
// phase, with ?follow=0.
func fetchEvents(ctx context.Context, h *harness, ops []*op) error {
	for _, o := range ops {
		if o.jobID == "" || o.events != nil {
			continue
		}
		ev, err := h.get(ctx, "/v1/jobs/"+o.jobID+"/events?follow=0", true)
		if err != nil {
			return err
		}
		o.events = ev
	}
	return nil
}

// opTrace is one op's parsed trace: the server's job events and the
// span trees of both sides.
type opTrace struct {
	events       []obs.Event // program-emitted
	bytes        int
	client, serv []*obs.SpanNode
}

func parseTrace(o *op) (*opTrace, error) {
	t := &opTrace{bytes: len(o.events)}
	if len(o.events) > 0 {
		evs, err := obs.ReadJSONL(bytes.NewReader(o.events))
		if err != nil {
			return nil, fmt.Errorf("job %s events: %w", o.jobID, err)
		}
		t.events = evs
	}
	// The two sides number their spans independently, so each builds
	// its own trees. Spans the program emits under a client span (the
	// solver's stages under core.solve) stay in the client tree.
	t.serv = obs.BuildSpanTrees(t.events)
	t.client = obs.BuildSpanTrees(o.client)
	for _, e := range o.client {
		if !clientSpans[e.S["name"]] {
			b, _ := json.Marshal(e) // an Event always marshals
			t.events = append(t.events, e)
			t.bytes += len(b) + 1
		}
	}
	return t, nil
}

func walk(nodes []*obs.SpanNode, parent *obs.SpanNode, f func(n, parent *obs.SpanNode)) {
	for _, n := range nodes {
		f(n, parent)
		walk(n.Children, n, f)
	}
}

// self is a span's duration minus what its children cover.
func self(n *obs.SpanNode) float64 { return n.Dur * (1 - n.CoveredFraction()) }

// acc accumulates a mean.
type acc struct {
	sum float64
	n   int
}

func (a *acc) add(v float64) { a.sum += v; a.n++ }
func (a acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSampler tracks Go runtime costs over a phase: GC CPU share,
// allocated bytes and the peak of live heap objects (sampled).
type rtSampler struct {
	start        []metrics.Sample
	stop         chan struct{}
	done         sync.WaitGroup
	peak         uint64 // written by the sampling goroutine, read after done.Wait
	gcPct, alloc float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeSampler() *rtSampler {
	s := &rtSampler{start: readRuntime(), stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if h := readRuntime()[3].Value.Uint64(); h > s.peak {
				s.peak = h
			}
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *rtSampler) finish() {
	close(s.stop)
	s.done.Wait()
	end := readRuntime()
	gc := end[0].Value.Float64() - s.start[0].Value.Float64()
	total := end[1].Value.Float64() - s.start[1].Value.Float64()
	s.gcPct = 100 * ratio(gc, total)
	s.alloc = float64(end[2].Value.Uint64() - s.start[2].Value.Uint64())
}

// scrape reads orpd's /metrics, summing each family over its labels.
func scrape(ctx context.Context, h *harness) (map[string]float64, error) {
	body, err := h.get(ctx, "/metrics", true)
	if err != nil {
		return nil, err
	}
	samples, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out, nil
}

// traceIn is everything a traced run hands to the analysis.
type traceIn struct {
	p, ref *phaseOut // the traced phase and its untraced reference
	before map[string]float64
	after  map[string]float64
	rt     *rtSampler
	rows   int // rows of the incremental distance cache in the serve workloads
}

// perLayerMetrics derives every per-layer metric from a traced phase.
// Metrics of a layer a workload does not reach read 0.
func perLayerMetrics(in traceIn) (map[string]float64, error) {
	var (
		admission, lookup, encode, encBytes, evalRun, httpT acc
		initT, loopT, ckptT, resumeT, finalT, writeT, pre   acc
		ckpts, events, evBytes, jobCov                      acc
		waits                                               []float64
		covMin                                              = 1.0
		iters, accepted, proposed, jobWall                  float64
		preempts                                            acc
	)
	perClass := map[string][]float64{}
	anneals := 0
	for _, o := range in.p.all {
		if o.err != nil {
			continue
		}
		perClass[o.kind] = append(perClass[o.kind], ms(o.latency()))
		t, err := parseTrace(o)
		if err != nil {
			return nil, err
		}
		events.add(float64(len(t.events)))
		evBytes.add(float64(t.bytes))
		var adm, lk float64
		nCkpt, seenInit := 0, false
		visit := func(n, parent *obs.SpanNode) {
			switch n.Name {
			case "client.op":
				// Coverage of the op's wall time: from its due time until
				// its last step read the result. The root ends a little
				// later, after emitting that step's span.
				end := n.Start
				for _, c := range n.Children {
					end = max(end, c.End())
				}
				if end > n.Start {
					covMin = min(covMin, n.CoveredFraction()*n.Dur/(end-n.Start))
				}
			case "job":
				jobCov.add(n.CoveredFraction())
			case "hsgraph.write":
				writeT.add(n.Dur)
			case "admission":
				adm = n.Dur
				admission.add(n.Dur)
			case "cache.lookup":
				lk = n.Dur
				lookup.add(n.Dur)
			case "queue.wait":
				waits = append(waits, n.Dur*1e3)
			case "run":
				if o.spec.Type == "eval" {
					evalRun.add(self(n))
				}
			case "encode":
				encode.add(n.Dur)
				encBytes.add(n.F["bytes"])
			case "anneal.init":
				initT.add(n.Dur)
				if !seenInit && parent != nil {
					pre.add(n.Start - parent.Start)
					seenInit = true
				}
			case "anneal.loop":
				loopT.add(self(n))
			case "anneal.checkpoint":
				ckptT.add(n.Dur)
				nCkpt++
			case "anneal.resume-load":
				resumeT.add(n.Dur)
			case "anneal.final-eval":
				finalT.add(n.Dur)
			}
		}
		walk(t.serv, nil, visit)
		walk(t.client, nil, visit)
		if o.jobID != "" {
			httpT.add(o.submit.Seconds() - adm - lk)
		}
		if o.designs() {
			anneals++
			ckpts.add(float64(nCkpt))
			preempts.add(float64(o.preemptions))
			if s, ok := summarize(o); ok && s.Anneal != nil {
				iters += float64(s.Anneal.Iterations)
				accepted += float64(s.Anneal.Accepted)
				proposed += float64(s.Anneal.Proposed)
				jobWall += o.latency().Seconds()
			}
		}
	}
	// Per-job means of the anneal stages: a preempted job runs several
	// loop episodes, and all of them are its loop time.
	perJob := func(a acc) float64 { return ratio(a.sum, float64(anneals)) * 1e3 }

	delta := func(name string) float64 { return in.after[name] - in.before[name] }
	syncs, rebuilds := delta("orpd_inc_syncs_total"), delta("orpd_inc_full_rebuilds_total")
	reuses, swept, dirty := delta("orpd_inc_stored_peek_reuses_total"), delta("orpd_inc_swept_sources_total"), delta("orpd_inc_dirty_sources_total")
	rows := in.rows
	if sv := in.p.solve; sv != nil {
		inc := sv.eval.Inc
		syncs, rebuilds, reuses = float64(inc.Syncs), float64(inc.FullRebuilds), float64(inc.StoredPeekReuses)
		swept, dirty, rows = float64(inc.SweptSources), float64(inc.DirtySources), sv.rows
	}
	ops := float64(len(in.p.all))
	hits, misses := delta("orpd_cache_hits_total"), delta("orpd_cache_misses_total")
	var lags []float64
	for _, o := range in.p.fg {
		if o.lag > 0 {
			lags = append(lags, ms(o.lag))
		}
	}
	traced, untraced := stats.Percentile(latencies(in.p.fg), 50), stats.Percentile(latencies(in.ref.fg), 50)

	return map[string]float64{
		"serve.admission_ms":           admission.mean() * 1e3,
		"serve.cache_lookup_ms":        lookup.mean() * 1e3,
		"serve.cache_hit_ratio":        ratio(hits, hits+misses),
		"serve.queue_wait_p50_ms":      stats.Percentile(waits, 50),
		"serve.queue_wait_p95_ms":      stats.Percentile(waits, 95),
		"serve.encode_ms":              encode.mean() * 1e3,
		"serve.encode_bytes":           encBytes.mean(),
		"serve.http_ms":                httpT.mean() * 1e3,
		"serve.hit_latency_p99_ms":     stats.Percentile(perClass[kindHit], 99),
		"serve.inline_latency_p99_ms":  stats.Percentile(perClass[kindInline], 99),
		"serve.miss_latency_p99_ms":    stats.Percentile(perClass[kindMiss], 99),
		"serve.job_span_coverage_pct":  100 * jobCov.mean(),
		"serve.preemptions_per_job":    preempts.mean(),
		"runstore.appends_per_op":      ratio(delta("orpd_store_appends_total"), ops),
		"opt.init_ms":                  perJob(initT),
		"opt.loop_ms":                  perJob(loopT),
		"opt.loop_moves_per_s":         ratio(iters, loopT.sum),
		"opt.job_moves_per_s":          ratio(iters, jobWall),
		"opt.checkpoint_ms":            ckptT.mean() * 1e3,
		"opt.checkpoints_per_job":      ckpts.mean(),
		"opt.resume_load_ms":           resumeT.mean() * 1e3,
		"opt.final_eval_ms":            perJob(finalT),
		"opt.accept_ratio":             ratio(accepted, proposed),
		"hsgraph.inc_dirty_fraction":   ratio(dirty, syncs*float64(rows)),
		"hsgraph.inc_swept_per_move":   ratio(swept, proposed),
		"hsgraph.inc_swept_over_dirty": ratio(swept, dirty),
		"hsgraph.inc_full_rebuilds":    ratio(rebuilds, float64(anneals)),
		"hsgraph.inc_peek_reuse_ratio": ratio(reuses, syncs),
		"hsgraph.eval_run_ms":          evalRun.mean() * 1e3,
		"hsgraph.write_ms":             writeT.mean() * 1e3,
		"core.pre_anneal_s":            pre.mean(),
		"obs.events_per_op":            events.mean(),
		"obs.event_bytes_per_op":       evBytes.mean(),
		"go.gc_cpu_pct":                in.rt.gcPct,
		"go.alloc_bytes_per_op":        ratio(in.rt.alloc, ops),
		"go.heap_peak_mb":              float64(in.rt.peak) / 1e6,
		"client.gen_lag_p99_ms":        stats.Percentile(lags, 99),
		"trace.overhead_pct":           100 * (ratio(traced, untraced) - 1),
		"trace.span_coverage_min_pct":  100 * covMin,
	}, nil
}

// writeTrace writes the traced phase as one obs JSONL stream — the
// benchmark's spans and each job's events, one trace per side per op —
// that orptrace renders. Every tracer numbers its spans from 1, so span
// IDs are shifted to stay unique across the file.
func writeTrace(path string, ops []*op) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	var next float64 // highest span ID written so far
	emit := func(evs []obs.Event) {
		base := next
		for _, e := range evs {
			if e.Kind == obs.KindHeader {
				continue
			}
			if e.Kind == obs.KindSpan {
				e.F = maps.Clone(e.F)
				e.F["id"] += base
				if e.F["parent"] != 0 {
					e.F["parent"] += base
				}
				next = max(next, e.F["id"])
			}
			sink.Emit(e)
		}
	}
	for _, o := range ops {
		evs, err := obs.ReadJSONL(bytes.NewReader(o.events))
		if err != nil {
			f.Close()
			return fmt.Errorf("job %s events: %w", o.jobID, err)
		}
		emit(o.client)
		emit(evs)
	}
	err = sink.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
