package perf

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

func TestMedianMAD(t *testing.T) {
	cases := []struct {
		xs       []float64
		med, mad float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 0},
		{[]float64{1, 2, 3, 4}, 2.5, 1},
		{[]float64{3, 1, 2}, 2, 1},
		{[]float64{10, 10, 10, 1000}, 10, 0}, // one spike cannot move either statistic
	}
	for _, c := range cases {
		med, mad := MedianMAD(c.xs)
		if med != c.med || mad != c.mad {
			t.Errorf("MedianMAD(%v) = %v/%v, want %v/%v", c.xs, med, mad, c.med, c.mad)
		}
	}
}

func TestRegisterRejectsUnknownFamily(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted an unknown family")
		}
	}()
	Register(Workload{Name: "bogus/x", Family: "nope", Setup: func(Config) (*Instance, error) { return nil, nil }})
}

func TestRegistryQueries(t *testing.T) {
	if len(Workloads()) < 10 {
		t.Fatalf("registry has %d workloads, expected the full canonical set", len(Workloads()))
	}
	for _, prefix := range []string{"eval/", "anneal/", "simnet/", "fault/", "ckpt/"} {
		if len(Names(prefix)) == 0 {
			t.Errorf("no workloads registered under %q", prefix)
		}
	}
	if Lookup("no/such/workload") != nil {
		t.Fatal("Lookup invented a workload")
	}
	if got, want := len(Match(regexp.MustCompile(`^eval/`))), len(Names("eval/")); got != want {
		t.Fatalf("Match(^eval/) = %d workloads, Names(eval/) = %d", got, want)
	}
	fams := Families([]WorkloadResult{{Family: "ckpt"}, {Family: "eval"}, {Family: "ckpt"}})
	if len(fams) != 2 || fams[0] != "ckpt" || fams[1] != "eval" {
		t.Fatalf("Families = %v, want [ckpt eval]", fams)
	}
}

// sleepWorkload is a deterministic-duration workload for harness
// self-tests; d is read on every repetition so a test can inject a
// slowdown between two measurement passes.
func sleepWorkload(name string, d *time.Duration) Workload {
	return Workload{
		Name: name, Family: "ckpt", Doc: "self-test sleeper", Unit: "naps",
		Setup: func(Config) (*Instance, error) {
			return &Instance{Run: func() (float64, error) {
				time.Sleep(*d)
				return 1, nil
			}}, nil
		},
	}
}

// measureSleep runs one measurement pass over the sleeper and wraps it
// in a validated report.
func measureSleep(t *testing.T, name string, d *time.Duration) *Report {
	t.Helper()
	rep, err := RunWorkloads([]Workload{sleepWorkload(name, d)}, RunOptions{Warmup: 1, Reps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestInjectedSlowdownFiresGate is the end-to-end self-test of the
// acceptance criterion: measure a workload, inject a deliberate 20%
// time.Sleep slowdown, measure again, and the comparator gate must fire.
func TestInjectedSlowdownFiresGate(t *testing.T) {
	d := 10 * time.Millisecond
	base := measureSleep(t, "selftest/sleeper", &d)

	d = 12 * time.Millisecond // the injected 20% slowdown
	slow := measureSleep(t, "selftest/sleeper", &d)

	res, err := Compare(base, slow, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Gate() || res.Regressions != 1 {
		t.Fatalf("injected 20%% slowdown did not fire the gate: %+v", res.Deltas)
	}
}

// TestBackToBackRunsDoNotGate: two measurement passes of the same
// workload on the same build must compare clean — the noise-aware
// thresholds exist exactly so that honest reruns pass.
func TestBackToBackRunsDoNotGate(t *testing.T) {
	d := 10 * time.Millisecond
	a := measureSleep(t, "selftest/sleeper", &d)
	b := measureSleep(t, "selftest/sleeper", &d)
	res, err := Compare(a, b, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gate() {
		t.Fatalf("back-to-back identical runs gated: %+v", res.Deltas)
	}
}

// TestReportRoundTrip: a measured report survives Write/ReadReport and
// Validate rejects tampering.
func TestReportRoundTrip(t *testing.T) {
	d := time.Millisecond
	rep, err := RunWorkloads([]Workload{sleepWorkload("selftest/rt", &d)}, RunOptions{Warmup: 1, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != 1 || back.Workloads[0].Name != "selftest/rt" {
		t.Fatalf("round trip lost workloads: %+v", back.Workloads)
	}
	if back.Build.GoVersion == "" || back.Machine.GOARCH == "" {
		t.Fatalf("round trip lost fingerprints: %+v / %+v", back.Build, back.Machine)
	}

	tampered := *back
	tampered.Workloads = append([]WorkloadResult(nil), back.Workloads...)
	tampered.Workloads[0].MedianNs *= 2 // no longer matches SamplesNs
	if err := tampered.Validate(); err == nil {
		t.Fatal("Validate accepted a median that disagrees with its samples")
	}
	wrongKind := *back
	wrongKind.Kind = "something.else"
	if err := wrongKind.Validate(); err == nil {
		t.Fatal("Validate accepted a foreign kind tag")
	}
}

func TestRunOptionsDefaults(t *testing.T) {
	var full, short RunOptions
	short.Short = true
	full.defaults()
	short.defaults()
	if full.Reps != 12 || full.Warmup != 2 {
		t.Fatalf("full defaults = %d reps / %d warmup, want 12/2", full.Reps, full.Warmup)
	}
	if short.Reps != 6 || short.Warmup != 1 {
		t.Fatalf("short defaults = %d reps / %d warmup, want 6/1", short.Reps, short.Warmup)
	}
}

// TestProfileCapturesLabels runs a workload under -profile-dir and
// verifies the captured CPU profile actually carries the pprof labels
// the harness sets: the profile's string table (after gunzip — CPU
// profiles are gzip-compressed protobuf) must contain the label keys
// and the workload name, which appears nowhere else in the binary.
func TestProfileCapturesLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profile capture needs ~1s of CPU in -short mode")
	}
	dir := t.TempDir()

	// On a single-CPU machine the calling goroutine drains the shard
	// queue before the pool goroutines ever run, so no CPU sample would
	// land on a worker. Oversubscribing GOMAXPROCS time-slices the pool
	// onto the core and makes worker samples (and their labels) appear.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// A probe workload that drives the sharded evaluator pool hard
	// enough (~60ms per rep) for the 100 Hz CPU sampler to land plenty
	// of samples in both the harness goroutine (workload/stage labels
	// from pprof.Do) and the pool workers (stage/worker goroutine
	// labels set in hsgraph.NewEvaluator). The graph is large enough
	// (m=672, ~80 µs per 128-source shard on a 2-vCPU Xeon VM) for the
	// pool goroutines to wake and claim shards before the caller drains
	// the queue; with n=512 (~15 µs shards) no worker sample landed in
	// about a quarter of runs.
	const probeName = "eval/profile-probe/n=2048,r=12"
	probe := Workload{
		Name: probeName, Family: "eval", Unit: "pairs",
		Setup: func(Config) (*Instance, error) {
			g, err := evalGraph(2048, 12)
			if err != nil {
				return nil, err
			}
			// Explicit worker count: on a single-CPU machine a
			// GOMAXPROCS-sized pool would have no pool goroutines at
			// all (worker 0 is the caller), and hence nothing to label.
			ev := hsgraph.NewEvaluator(3)
			return &Instance{
				Run: func() (float64, error) {
					n := 0
					for t0 := time.Now(); time.Since(t0) < 60*time.Millisecond; {
						ev.Evaluate(g)
						n++
					}
					return float64(n), nil
				},
				Close: ev.Close,
			}, nil
		},
	}

	if _, err := RunWorkload(probe, RunOptions{Warmup: 1, Reps: 10, ProfileDir: dir}); err != nil {
		t.Fatal(err)
	}

	cpuPath := filepath.Join(dir, profileFileName(probeName)+".cpu.pprof")
	raw, err := os.ReadFile(cpuPath)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("CPU profile is not gzip-compressed protobuf: %v", err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"workload", probeName, "stage", "eval", "worker"} {
		if !bytes.Contains(proto, []byte(label)) {
			t.Errorf("CPU profile string table missing label string %q", label)
		}
	}

	heapPath := filepath.Join(dir, profileFileName(probeName)+".heap.pprof")
	if fi, err := os.Stat(heapPath); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
}

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
