package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/rng"
)

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

func graphText(t *testing.T, n, m, r int, seed uint64) string {
	t.Helper()
	g, err := hsgraph.RandomConnected(n, m, r, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hsgraph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestEvalJobAndCacheByteIdentity(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	spec := JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: 7}

	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitDone(t, s, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("job 1: state %s err %q", st1.State, st1.Error)
	}
	if st1.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	var res EvalResult
	if err := json.Unmarshal(st1.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Graph.Connected || res.Graph.HASPL <= 0 {
		t.Fatalf("implausible eval result: %+v", res.Graph)
	}

	// Second identical submission: immediate, cached, byte-identical.
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("repeat submission not served from cache: state %s cached %v", st2.State, st2.Cached)
	}
	if !bytes.Equal(st1.Result, st2.Result) {
		t.Fatalf("cache hit not byte-identical:\n%s\nvs\n%s", st1.Result, st2.Result)
	}

	// The same graph submitted inline (different spec spelling, same
	// canonical content) must hit too: the key is the fingerprint.
	st3, err := s.Submit(JobSpec{Type: TypeEval, Graph: graphText(t, 48, 16, 6, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached {
		t.Fatal("inline vs generated spell the graph source differently and must not share a key")
	}
	st3 = waitDone(t, s, st3.ID)
	if !bytes.Equal(st1.Result, st3.Result) {
		t.Fatalf("same graph, different result bytes:\n%s\nvs\n%s", st1.Result, st3.Result)
	}

	// And now the inline spelling is cached under its own key: a
	// storage-order-permuted copy of the same graph must hit it.
	g, err := hsgraph.Read(strings.NewReader(graphText(t, 48, 16, 6, 7)))
	if err != nil {
		t.Fatal(err)
	}
	perm := rebuildShuffledServe(t, g)
	var buf bytes.Buffer
	if err := hsgraph.Write(&buf, perm); err != nil {
		t.Fatal(err)
	}
	st4, err := s.Submit(JobSpec{Type: TypeEval, Graph: buf.String()})
	if err != nil {
		t.Fatal(err)
	}
	if !st4.Cached {
		t.Fatal("storage-order permutation missed the cache: fingerprint key broken")
	}
	if !bytes.Equal(st3.Result, st4.Result) {
		t.Fatal("cache hit not byte-identical across storage orders")
	}
}

// rebuildShuffledServe rebuilds g with a different insertion order (the
// same labeled graph, permuted internal storage).
func rebuildShuffledServe(t *testing.T, g *hsgraph.Graph) *hsgraph.Graph {
	t.Helper()
	rnd := rng.New(99)
	c := hsgraph.New(g.Order(), g.Switches(), g.Radix())
	for _, h := range rnd.Perm(g.Order()) {
		if s := g.SwitchOf(h); s != -1 {
			if err := c.AttachHost(h, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, i := range rnd.Perm(g.NumEdges()) {
		a, b := g.Edge(i)
		if err := c.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestAnnealJobInlineGraph(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	st, err := s.Submit(JobSpec{
		Type: TypeAnneal, Graph: graphText(t, 48, 16, 6, 3),
		Iterations: 2000, Seed: 5, EvalMode: "incremental",
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s err %q", st.State, st.Error)
	}
	var res AnnealResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Anneal == nil || res.Anneal.Best.TotalPath > res.Anneal.Initial.TotalPath {
		t.Fatalf("anneal did not improve: %+v", res.Anneal)
	}
	// The returned graph text must round-trip to the returned fingerprint.
	g, err := hsgraph.Read(strings.NewReader(res.GraphText))
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint().String() != res.Fingerprint {
		t.Fatal("graphText does not match fingerprint")
	}
}

func TestAnnealJobDesignProblem(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	// n <= r: single-switch regime, instant.
	st, err := s.Submit(JobSpec{Type: TypeAnneal, N: 8, R: 10})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s err %q", st.State, st.Error)
	}
	var res AnnealResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Method != "single-switch" || res.Graph.HASPL != 2 {
		t.Fatalf("expected single-switch h-ASPL 2, got %+v", res)
	}
}

func TestSweepJob(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	st, err := s.Submit(JobSpec{
		Type: TypeSweep, N: 48, M: 16, R: 6, GraphSeed: 2,
		Model: "links", Fractions: []float64{0.05, 0.1}, Trials: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s err %q", st.State, st.Error)
	}
	var res SweepResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Fraction != 0.05 {
		t.Fatalf("unexpected sweep points: %+v", res.Points)
	}
	// Repeat: cached, byte-identical.
	st2, err := s.Submit(JobSpec{
		Type: TypeSweep, N: 48, M: 16, R: 6, GraphSeed: 2,
		Model: "links", Fractions: []float64{0.05, 0.1}, Trials: 4, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || !bytes.Equal(st.Result, st2.Result) {
		t.Fatal("repeat sweep not a byte-identical cache hit")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	bad := []JobSpec{
		{Type: "mine-bitcoin"},
		{Type: TypeEval},                                       // no graph source
		{Type: TypeEval, N: 48, R: 6},                          // eval needs m
		{Type: TypeEval, Graph: "garbage"},                     // unparseable
		{Type: TypeAnneal, N: 48, R: 6, Graph: "x", M: 16},     // both sources
		{Type: TypeAnneal, N: 48, R: 6, EvalMode: "wrong"},     // bad enum
		{Type: TypeAnneal, N: 48, R: 6, EvalMode: "symmetric"}, // never an orpd spelling
		{Type: TypeAnneal, N: 48, R: 6, EvalMode: "ladder"},    // retired sampled mode
		{Type: TypeSweep, N: 48, M: 16, R: 6, Model: "bad"},    // bad model
		{Type: TypeSweep, N: 48, M: 16, R: 6, Fractions: []float64{2}},
		{Type: TypeEval, N: 48, M: 16, R: 6, Workers: -1},
		// Infeasible generated graphs: n > m*r - 2(m-1).
		{Type: TypeEval, N: 100, M: 30, R: 3, GraphSeed: 1}, // 100 > 32
		{Type: TypeSweep, N: 48, M: 4, R: 6},                // 48 > 18
		{Type: TypeAnneal, N: 48, M: 2, R: 6},               // fixed m: 48 > 10
		{Type: TypeEval, N: 7, M: 1, R: 6},                  // one switch holds r hosts
	}
	for i, spec := range bad {
		_, err := s.Submit(spec)
		if err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
			continue
		}
		if spec.EvalMode != "" && !strings.Contains(err.Error(), "exact or incremental") {
			t.Errorf("spec %d: error %q does not name the valid eval modes", i, err)
		}
		if infeasible := spec.M > 0 && spec.Graph == "" && !hsgraph.Feasible(spec.N, spec.M, spec.R); infeasible {
			want := fmt.Sprintf("n=%d hosts on m=%d switches of radix r=%d", spec.N, spec.M, spec.R)
			if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), want) {
				t.Errorf("spec %d: error %q is not ErrInfeasible naming %q", i, err, want)
			}
		}
	}
	// The boundary itself is feasible: 18 hosts fill m=4 switches of
	// radix 6 once a spanning tree has taken 2(m-1) ports.
	if _, err := s.Submit(JobSpec{Type: TypeEval, N: 18, M: 4, R: 6, GraphSeed: 1}); err != nil {
		t.Fatalf("feasible boundary spec rejected: %v", err)
	}

	// Over HTTP a spelling orpd never accepted is refused up front with a
	// 400, not accepted and failed at run time.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"type":"anneal","n":32,"r":4,"iterations":300,"seed":11,"evalMode":"symmetric"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("evalMode symmetric: status %d, want 400", resp.StatusCode)
	}

	// A well-formed spec naming a graph that cannot exist is a 422 whose
	// error names n, m and r.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"eval","n":100,"m":30,"r":3,"graphSeed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	derr := json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || derr != nil ||
		!strings.Contains(apiErr.Error, "n=100 hosts on m=30 switches of radix r=3") {
		t.Fatalf("infeasible spec: status %d error %q (%v), want 422 naming n, m and r", resp.StatusCode, apiErr.Error, derr)
	}
}

// TestAnnealCacheIgnoresEvalMode: evalMode selects nothing, so it is not
// part of the cache key. A spec that differs only in evalMode is a cache
// hit, and its bytes equal a cold run of that spec on a fresh server.
func TestAnnealCacheIgnoresEvalMode(t *testing.T) {
	base := JobSpec{Type: TypeAnneal, Graph: graphText(t, 48, 16, 6, 3), Iterations: 1500, Seed: 5}
	for _, modes := range [][2]string{{"exact", "incremental"}, {"incremental", ""}} {
		first, second := base, base
		first.EvalMode, second.EvalMode = modes[0], modes[1]

		s := testServer(t, Config{Workers: 2})
		st1 := submitDone(t, s, first)
		st2, err := s.Submit(second)
		if err != nil {
			t.Fatal(err)
		}
		if !st2.Cached || st2.State != StateDone {
			t.Fatalf("%q after %q: not a cache hit (state %s)", modes[1], modes[0], st2.State)
		}
		if !bytes.Equal(st1.Result, st2.Result) {
			t.Fatalf("%q after %q: cache hit bytes differ", modes[1], modes[0])
		}

		cold := submitDone(t, testServer(t, Config{Workers: 2}), second)
		if cold.Cached {
			t.Fatal("fresh server claims a cache hit")
		}
		if !bytes.Equal(cold.Result, st2.Result) {
			t.Fatalf("cold %q run differs from the %q bytes it was served:\n%s\nvs\n%s", modes[1], modes[0], cold.Result, st2.Result)
		}
	}
}

func TestHTTPAPI(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit over HTTP.
	body := `{"type":"eval","n":48,"m":16,"r":6,"graphSeed":1}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	waitDone(t, s, st.ID)

	// Status.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("GET job: %+v", got)
	}

	// Repeat POST: cache hit carries the result immediately with 200.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var hit JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !hit.Cached || hit.Result == nil {
		t.Fatalf("cache-hit POST: status %d cached %v", resp.StatusCode, hit.Cached)
	}
	if !bytes.Equal(hit.Result, got.Result) {
		t.Fatal("HTTP cache hit not byte-identical")
	}

	// List.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}

	// Unknown job: 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status %d", resp.StatusCode)
	}

	// Metrics exposition names the orpd instruments.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"orpd_jobs_submitted_total 2", "orpd_cache_hits_total 1", "orpd_cache_misses_total 1"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestEventStreamReplayAndFollow(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(JobSpec{
		Type: TypeSweep, N: 48, M: 16, R: 6, GraphSeed: 4,
		Fractions: []float64{0.05}, Trials: 6, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Follow while running: the stream ends at job.done on its own.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != obs.KindHeader {
		t.Fatalf("stream does not start with the obs header: %+v", events)
	}
	if events[0].F["version"] != obs.SchemaVersion {
		t.Fatalf("wrong schema version: %v", events[0].F)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[KindJobQueued] != 1 || kinds[KindJobRunning] < 1 || kinds[KindJobDone] != 1 {
		t.Fatalf("missing lifecycle events: %v", kinds)
	}
	if kinds[obs.KindSweepTrial] != 6 {
		t.Fatalf("want 6 sweep.trial events, got %d", kinds[obs.KindSweepTrial])
	}
	if events[len(events)-1].Kind != KindJobDone {
		t.Fatalf("stream does not end with job.done: %v", events[len(events)-1].Kind)
	}

	// Replay after completion: the identical full stream.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, err := obs.ReadJSONL(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(events) {
		t.Fatalf("replay has %d events, live follow had %d", len(replay), len(events))
	}
}

func TestDrainRejectsAndUnwinds(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	// A long anneal to be mid-flight at drain time.
	st, err := s.Submit(JobSpec{
		Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, 1),
		Iterations: 5_000_000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to actually start.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := s.sched.Get(st.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drained: submissions bounce.
	if _, err := s.Submit(JobSpec{Type: TypeEval, N: 8, M: 2, R: 5, GraphSeed: 1}); err != ErrDraining {
		t.Fatalf("submit after drain: %v", err)
	}
	// The interrupted job is back in queued state; its engine stopped
	// without a snapshot (a new process reruns a resubmission).
	got, _ := s.sched.Get(st.ID)
	if got.State != StateQueued || got.Preemptions != 1 {
		t.Fatalf("after drain: state %s preemptions %d", got.State, got.Preemptions)
	}
}
