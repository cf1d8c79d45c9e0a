package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"net/http"
)

// TestLoadCachedEvalsUnderAnnealPressure is the committed load test
// behind EXPERIMENTS.md's §orpd numbers: thousands of concurrent cached
// eval queries racing ten concurrent anneal jobs under one shared
// worker budget. It asserts the latency-isolation property the service
// exists for — cache hits stay fast while the budget is saturated with
// design work — and prints the p50/p95/p99 table. Run with -short to
// skip (CI's test job runs it as part of go test ./...).
func TestLoadCachedEvalsUnderAnnealPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("load test: skipped in -short")
	}
	if raceEnabled {
		t.Skip("load test: latency bounds are meaningless under the race detector")
	}
	s := testServer(t, Config{Workers: 4, CacheSize: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	// Warm the cache with the eval queries the load phase will repeat.
	const distinctEvals = 8
	evalBody := func(i int) string {
		return fmt.Sprintf(`{"type":"eval","n":48,"m":16,"r":6,"graphSeed":%d}`, i+1)
	}
	for i := 0; i < distinctEvals; i++ {
		st, err := s.Submit(JobSpec{Type: TypeEval, N: 48, M: 16, R: 6, GraphSeed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, st.ID); st.State != StateDone {
			t.Fatalf("warmup eval failed: %q", st.Error)
		}
	}

	// Background pressure: 10 concurrent anneal jobs sharing the budget.
	const anneals = 10
	annealIDs := make([]string, anneals)
	for i := range annealIDs {
		st, err := s.Submit(JobSpec{
			Type: TypeAnneal, Graph: graphText(t, 64, 20, 7, uint64(i+1)),
			Iterations: 150_000, Seed: uint64(i + 1), EvalMode: "incremental",
		})
		if err != nil {
			t.Fatal(err)
		}
		annealIDs[i] = st.ID
	}

	// Load phase: 32 client goroutines, 2000 cached eval queries over
	// HTTP while the anneals grind.
	const clients, queries = 32, 2000
	lat := make([]time.Duration, queries)
	var idx int64
	var mu sync.Mutex
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	per := queries / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < per; q++ {
				body := evalBody((c + q) % distinctEvals)
				start := time.Now()
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errCh <- fmt.Errorf("expected cache-hit 200, got %d", resp.StatusCode)
					return
				}
				resp.Body.Close()
				d := time.Since(start)
				mu.Lock()
				lat[idx] = d
				idx++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every anneal must complete despite the query storm.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, id := range annealIDs {
		st, err := s.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("anneal %s: %s %q", id, st.State, st.Error)
		}
	}

	got := lat[:idx]
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	q := func(p float64) time.Duration { return got[int(p*float64(len(got)-1))] }
	t.Logf("cached evals under anneal pressure: n=%d clients=%d  p50=%v  p95=%v  p99=%v  max=%v",
		len(got), clients, q(0.50), q(0.95), q(0.99), got[len(got)-1])

	// The latency-isolation assertion. A cache hit never runs an
	// engine, so its median stays milliseconds even under full budget
	// saturation. The tail bound is deliberately loose: on a single-core
	// runner the Go scheduler timeslices 40+ runnable goroutines at
	// ~10ms quanta, so the p99 measures CPU oversubscription, not the
	// cache — it only guards against hits blocking behind an engine run
	// (which would push seconds, not hundreds of milliseconds).
	if p50 := q(0.50); p50 > 100*time.Millisecond {
		t.Fatalf("cache-hit p50 %v: hits are not being served from memory", p50)
	}
	if p99 := q(0.99); p99 > 2*time.Second {
		t.Fatalf("cache-hit p99 %v: reads are blocking behind engine work", p99)
	}
	hits := s.met.hits.Value()
	if hits < int64(len(got)) {
		t.Fatalf("only %d cache hits for %d queries", hits, len(got))
	}
}
