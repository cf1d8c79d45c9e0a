package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
)

// jobSpanTree fetches the job's event log and returns its root "job"
// span node.
func jobSpanTree(t *testing.T, s *Server, id string) *obs.SpanNode {
	t.Helper()
	log, ok := s.sched.Events(id)
	if !ok {
		t.Fatalf("no event log for %s", id)
	}
	roots := obs.BuildSpanTrees(log.Snapshot())
	for _, r := range roots {
		if r.Name == "job" {
			return r
		}
	}
	t.Fatalf("no root job span among %d roots", len(roots))
	return nil
}

// TestJobTraceDecomposition is the tracing acceptance contract: a
// preempted-then-resumed anneal's trace decomposes ≥95% of the job's
// wall time into non-overlapping top-level phases (admission,
// cache.lookup, alternating queue.wait and run episodes), with the
// engine's stage spans and the encode span nested under, and within,
// the run episodes.
func TestJobTraceDecomposition(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ast, err := s.Submit(JobSpec{
		Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, 9),
		Iterations: 60_000, Seed: 4, EvalMode: "incremental", Priority: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := s.sched.Get(ast.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("anneal never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// A high-priority job on a 1-worker budget forces a preemption.
	est, err := s.Submit(JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: 1, Priority: 10})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, est.ID)
	if st := waitDone(t, s, ast.ID); st.State != StateDone || st.Preemptions < 1 {
		t.Fatalf("state %s preemptions %d err %q; the round trip never happened",
			st.State, st.Preemptions, st.Error)
	}

	root := jobSpanTree(t, s, ast.ID)
	if root.S["outcome"] != "done" {
		t.Fatalf("root outcome %q", root.S["outcome"])
	}
	if cov := root.CoveredFraction(); cov < 0.95 {
		t.Errorf("children cover %.4f of the job span, want >= 0.95", cov)
	}
	if ov := root.MaxSiblingOverlap(); ov > 1e-3 {
		t.Errorf("top-level phases overlap by %.6fs, want disjoint", ov)
	}

	var waits, runs int
	var outcomes []string
	for _, c := range root.Children {
		switch c.Name {
		case "admission", "cache.lookup":
		case "queue.wait":
			waits++
		case "run":
			runs++
			outcomes = append(outcomes, c.S["outcome"])
		default:
			t.Errorf("unexpected top-level phase %q", c.Name)
		}
	}
	if waits < 2 || runs < 2 {
		t.Fatalf("preempted job has %d queue.wait and %d run episodes, want >= 2 each", waits, runs)
	}
	if outcomes[0] != "preempted" || outcomes[len(outcomes)-1] != "done" {
		t.Fatalf("run episode outcomes %v, want preempted...done", outcomes)
	}

	// Engine stages and the encode span nest under the run episodes.
	nested := map[string]bool{}
	for _, c := range root.Children {
		if c.Name != "run" {
			continue
		}
		for _, cc := range c.Children {
			nested[cc.Name] = true
		}
	}
	for _, want := range []string{"anneal.loop", "encode"} {
		if !nested[want] {
			t.Errorf("run episodes are missing a nested %q span: %v", want, nested)
		}
	}
	// ...and stay inside them: a parked engine ends its stage spans
	// before it waits and opens the next under the new episode, so no
	// engine span straddles a queue.wait.
	for _, c := range root.Children {
		if c.Name == "run" {
			requireWithin(t, c)
		}
	}

	// The same stream renders as a Chrome trace and a waterfall.
	log, _ := s.sched.Events(ast.ID)
	if rows := obs.SpanTraceEvents(log.Snapshot()); len(rows) < 5 {
		t.Errorf("chrome trace export produced %d rows", len(rows))
	}
	var sb strings.Builder
	if err := obs.WriteSpanTree(&sb, []*obs.SpanNode{root}, 32); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "queue.wait") {
		t.Errorf("waterfall rendering lost the phases:\n%s", sb.String())
	}
}

// requireWithin asserts that every descendant of n lies within its
// parent's interval.
func requireWithin(t *testing.T, n *obs.SpanNode) {
	t.Helper()
	const eps = 1e-6
	for _, c := range n.Children {
		if c.Start < n.Start-eps || c.End() > n.End()+eps {
			t.Errorf("%s [%.6f, %.6f] escapes its parent %s [%.6f, %.6f]",
				c.Name, c.Start, c.End(), n.Name, n.Start, n.End())
		}
		requireWithin(t, c)
	}
}

// TestCachedJobTrace pins that even an instant cache-hit job leaves a
// complete, well-formed trace.
func TestCachedJobTrace(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	spec := JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 3}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	hit, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second submission missed the cache")
	}
	root := jobSpanTree(t, s, hit.ID)
	if root.F["cached"] != 1 || root.S["outcome"] != "done" {
		t.Fatalf("cached job root span: %+v %+v", root.F, root.S)
	}
	var lookup *obs.SpanNode
	for _, c := range root.Children {
		if c.Name == "cache.lookup" {
			lookup = c
		}
	}
	if lookup == nil || lookup.F["hit"] != 1 {
		t.Fatalf("cache.lookup span missing or not a hit: %+v", lookup)
	}
}

// TestEventsFollowGapMarker pins the overrun contract of the events
// stream: when the ring buffer has already trimmed events a follower
// never saw, the stream opens with a stream.gap marker naming the loss,
// stays valid JSONL, and terminates — it never hangs and never tears a
// record.
func TestEventsFollowGapMarker(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A hand-planted job with a tiny ring, already overrun and closed.
	l := newEventLogCap(8)
	for i := 0; i < 100; i++ {
		l.Append(obs.Event{Kind: "x", T: float64(i)})
	}
	l.Close(obs.Event{Kind: KindJobDone})
	s.sched.mu.Lock()
	s.sched.jobs["jgap"] = &job{id: "jgap", log: l}
	s.sched.mu.Unlock()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/jobs/jgap/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, err := obs.ReadJSONL(resp.Body) // fails on any torn record
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Kind != KindStreamGap {
		t.Fatalf("overrun stream does not open with stream.gap: %v", events[0].Kind)
	}
	// header + 100 appends + final = 102 total; 8 remain buffered.
	if got := events[0].F["dropped"]; got != 102-8 {
		t.Fatalf("gap reports %v dropped, want %d", got, 102-8)
	}
	if len(events) != 9 { // gap marker + the 8-event window (incl. final)
		t.Fatalf("stream has %d events, want 9", len(events))
	}
	if events[len(events)-1].Kind != KindJobDone {
		t.Fatalf("stream does not terminate at job.done: %v", events[len(events)-1].Kind)
	}

	// A live follower that connects before the overrun also terminates
	// (possibly with a mid-stream gap) once the log closes.
	l2 := newEventLogCap(8)
	s.sched.mu.Lock()
	s.sched.jobs["jgap2"] = &job{id: "jgap2", log: l2}
	s.sched.mu.Unlock()
	go func() {
		for i := 0; i < 200; i++ {
			l2.Append(obs.Event{Kind: "x", T: float64(i)})
		}
		l2.Close(obs.Event{Kind: KindJobDone})
	}()
	resp2, err := client.Get(ts.URL + "/v1/jobs/jgap2/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events2, err := obs.ReadJSONL(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if events2[len(events2)-1].Kind != KindJobDone {
		t.Fatal("live follow did not terminate at job.done")
	}

	// ?follow=0 returns immediately even on a still-open log.
	l3 := newEventLogCap(8)
	l3.Append(obs.Event{Kind: "x"})
	s.sched.mu.Lock()
	s.sched.jobs["jgap3"] = &job{id: "jgap3", log: l3}
	s.sched.mu.Unlock()
	resp3, err := client.Get(ts.URL + "/v1/jobs/jgap3/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if events3, err := obs.ReadJSONL(strings.NewReader(string(b))); err != nil || len(events3) != 2 {
		t.Fatalf("replay-only stream: %d events err %v", len(events3), err)
	}
}

// TestJobRetentionGC pins the TTL: finished jobs past the retention
// window disappear from the index (counted by orpd_jobs_evicted_total)
// while unfinished jobs are untouched, and the listing order of the
// survivors is unchanged.
func TestJobRetentionGC(t *testing.T) {
	s := testServer(t, Config{Workers: 2, Retention: time.Hour})
	st, err := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	st2, err := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st2.ID)

	if got := s.sched.List(""); len(got) != 2 {
		t.Fatalf("list before expiry: %d jobs", len(got))
	}

	// Move the scheduler's clock past the window: both finished jobs
	// expire on the next API touch.
	s.sched.mu.Lock()
	s.sched.clock = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.sched.mu.Unlock()

	if got := s.sched.List(""); len(got) != 0 {
		t.Fatalf("expired jobs still listed: %+v", got)
	}
	if _, ok := s.sched.Get(st.ID); ok {
		t.Fatal("expired job still gettable")
	}
	if got := s.met.evicted.Value(); got != 2 {
		t.Fatalf("evicted counter %d, want 2", got)
	}

	// The result cache is unaffected: resubmission is still a hit.
	hit, err := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("eviction took the cached result with it")
	}
}

// TestListStateFilterHTTP pins GET /v1/jobs?state=: valid states filter,
// anything else is a 400, and order stays submission order.
func TestListStateFilterHTTP(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := s.Submit(JobSpec{Type: TypeEval, N: 24, M: 8, R: 5, GraphSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		waitDone(t, s, st.ID)
	}

	getList := func(q string) ([]JobStatus, int) {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list []JobStatus
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
		}
		return list, resp.StatusCode
	}

	done, code := getList("?state=done")
	if code != http.StatusOK || len(done) != 3 {
		t.Fatalf("?state=done: code %d len %d", code, len(done))
	}
	for i, st := range done {
		if st.ID != ids[i] {
			t.Fatalf("listing order changed: %v vs %v", st.ID, ids[i])
		}
	}
	if failed, code := getList("?state=failed"); code != http.StatusOK || len(failed) != 0 {
		t.Fatalf("?state=failed: code %d len %d", code, len(failed))
	}
	if _, code := getList("?state=bogus"); code != http.StatusBadRequest {
		t.Fatalf("?state=bogus: code %d, want 400", code)
	}
}

// TestServiceMetricsExposition pins the instrument surface the dashboard
// (cmd/orptop) and CI scrape: flat legacy families survive, the RED
// per-endpoint children appear, and an incremental-mode anneal feeds the
// orpd_inc_* counters.
func TestServiceMetricsExposition(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// m=72 is above the size threshold, so the anneal scores through the
	// incremental cache.
	body := `{"type":"anneal","graph":` + jsonString(graphText(t, 288, 72, 8, 3)) +
		`,"iterations":4000,"seed":5}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st = waitDone(t, s, st.ID); st.State != StateDone {
		t.Fatalf("anneal failed: %q", st.Error)
	}
	if resp, err = http.Get(ts.URL + "/v1/jobs"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"orpd_jobs_submitted_total 1", // flat families stay (CI greps them)
		"orpd_jobs_done_total 1",
		`orpd_http_requests_total{endpoint="submit",code="2xx"} 1`,
		`orpd_http_requests_total{endpoint="list",code="2xx"} 1`,
		`orpd_http_request_seconds_count{endpoint="submit"} 1`,
		"orpd_jobs_evicted_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The cache-path run reported at least one sampling interval, so the
	// introspection counters moved.
	fams, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"orpd_inc_syncs_total", "orpd_inc_swept_sources_total", "orpd_inc_dirty_sources_total",
	} {
		if v, ok := scalarMetric(fams, name); !ok || v <= 0 {
			t.Errorf("%s = %v (present %v), want > 0", name, v, ok)
		}
	}
	// Queue-wait histograms appear per priority.
	if !strings.Contains(text, `orpd_queue_wait_seconds_count{priority="0"} 1`) {
		t.Errorf("missing per-priority queue wait histogram:\n%s",
			firstMatching(text, "orpd_queue_wait"))
	}
}

// scalarMetric finds the first unlabeled sample of a family.
func scalarMetric(samples []obs.PromSample, name string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value, true
		}
	}
	return 0, false
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func firstMatching(text, substr string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return "(no line matches " + substr + ")"
}

// sampleKeys returns the field keys of the anneal.sample events in evs,
// failing unless every sample carries the same set.
func sampleKeys(t *testing.T, evs []obs.Event) []string {
	t.Helper()
	var keys []string
	for _, e := range evs {
		if e.Kind != obs.KindAnnealSample {
			continue
		}
		var k []string
		for name := range e.F {
			k = append(k, name)
		}
		slices.Sort(k)
		if keys != nil && !slices.Equal(keys, k) {
			t.Fatalf("anneal.sample key sets differ within one stream: %v and %v", keys, k)
		}
		keys = k
	}
	if keys == nil {
		t.Fatal("no anneal.sample events")
	}
	return keys
}

// TestAnnealSampleFieldsMatchCLI: orpd's job streams and orpsolve's
// -trace-out files encode anneal samples with one encoder, so the same
// seed run as an orpd anneal job and through cliutil.AnnealObserver
// writes anneal.sample events with equal key sets, on the exact path
// (n=48, m=20) and on the cache path (n=1024, m=195).
func TestAnnealSampleFieldsMatchCLI(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	for _, spec := range []JobSpec{
		{Type: TypeAnneal, N: 48, R: 6, Iterations: 2000, Seed: 5},
		{Type: TypeAnneal, N: 1024, R: 15, Iterations: 1000, Seed: 5},
	} {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, s, st.ID); st.State != StateDone {
			t.Fatalf("n=%d: anneal failed: %q", spec.N, st.Error)
		}
		log, ok := s.sched.Events(st.ID)
		if !ok {
			t.Fatalf("no event log for %s", st.ID)
		}
		orpd := sampleKeys(t, log.Snapshot())

		path := filepath.Join(t.TempDir(), "trace.jsonl")
		sink, err := cliutil.OpenSink(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Solve(spec.N, spec.R, core.Options{
			Iterations: spec.Iterations, Seed: spec.Seed, Workers: 1,
			Observer: cliutil.NewAnnealObserver(nil, sink, false),
		}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cli := sampleKeys(t, evs); !slices.Equal(orpd, cli) {
			t.Fatalf("n=%d: anneal.sample keys differ:\norpd     %v\norpsolve %v", spec.N, orpd, cli)
		}
	}
}
