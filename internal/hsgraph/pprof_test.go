package hsgraph_test

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// TestEvaluatorWorkerGoroutineLabels asserts the persistent sharded-pool
// goroutines carry their stage/worker pprof labels, via the goroutine
// profile's debug=1 text rendering (which prints labels verbatim).
func TestEvaluatorWorkerGoroutineLabels(t *testing.T) {
	// Worker 0 is the calling goroutine; workers 1..N-1 are pool
	// goroutines labelled at spawn in hsgraph.NewEvaluator.
	ev := hsgraph.NewEvaluator(3)
	defer ev.Close()
	// One evaluation synchronizes with the pool, guaranteeing every
	// worker has run (and therefore labelled itself) before the snapshot.
	g, err := hsgraph.RandomConnected(64, 16, 8, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// A worker caught mid-transition (running, not yet parked on the
	// channel receive) renders in the profile without stack or labels,
	// so snapshot until every worker is parked.
	var out string
	for attempt := 0; attempt < 50; attempt++ {
		ev.Evaluate(g)
		time.Sleep(time.Millisecond)
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		out = buf.String()
		ok := true
		for _, want := range []string{`"stage":"eval"`, `"worker":"1"`, `"worker":"2"`} {
			ok = ok && strings.Contains(out, want)
		}
		if ok {
			return
		}
	}
	t.Fatalf("goroutine profile never showed stage/worker labels for both pool workers:\n%s", out)
}
