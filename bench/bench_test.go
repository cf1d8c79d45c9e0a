package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/serve"
)

// schedule renders an op list as comparable text: due offset, kind and
// request body.
func schedule(ops []*op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%d %s %s\n", o.at, o.kind, o.body)
	}
	return b.String()
}

func closedStream(next func(i int) *op, n int) []*op {
	var ops []*op
	for i := 0; i < n; i++ {
		ops = append(ops, next(i))
	}
	return ops
}

func TestScheduleIsSeedDetermined(t *testing.T) {
	plans := map[string]func(seed uint64) string{
		"query": func(seed uint64) string {
			in, err := newQueryInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			return schedule(in.querySchedule(seed, "run", 2*time.Second)) +
				schedule(closedStream(func(i int) *op { return in.capacityOp(seed, "run-cap", i) }, 50))
		},
		"design": func(seed uint64) string {
			return schedule(closedStream(func(i int) *op { return designJob(seed, "run", i) }, 20))
		},
		"contend": func(seed uint64) string {
			return schedule(contendSchedule(seed, "run", 5*time.Second)) +
				schedule(closedStream(func(i int) *op { return contendJob(seed, "run-bg", i, 2) }, 10))
		},
	}
	for name, plan := range plans {
		a, b, c := plan(1), plan(1), plan(2)
		if a == "" {
			t.Errorf("%s: empty schedule", name)
		}
		if a != b {
			t.Errorf("%s: the same seed gave different schedules", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", name)
		}
	}
}

func TestQueryMixAndRate(t *testing.T) {
	in, err := newQueryInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	ops := in.querySchedule(7, "run", 10*time.Second)
	kinds := map[string]int{}
	seeds := map[uint64]bool{}
	for _, w := range in.gen {
		seeds[w.spec.GraphSeed] = true
	}
	for _, o := range ops {
		kinds[o.kind]++
		if o.kind == kindMiss {
			if seeds[o.spec.GraphSeed] {
				t.Fatalf("cold eval reuses graph seed %d", o.spec.GraphSeed)
			}
			seeds[o.spec.GraphSeed] = true
		}
	}
	n := float64(len(ops))
	if n < 0.9*queryRate*10 || n > 1.1*queryRate*10 {
		t.Errorf("%v arrivals in 10 s, want about %v", n, queryRate*10)
	}
	for kind, want := range map[string]float64{kindHit: 0.8, kindInline: 0.1, kindMiss: 0.1} {
		if got := float64(kinds[kind]) / n; got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 100}, {10, 100}, {19, 100}, {20, 50}, {40, 75}, {50, 80}, {99, 80},
		{100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// Each workload's fixed tail percentile is the rule's pick for the op
// count of a run of BENCHMARK.json's length, with a fifth of the ops
// missing (Poisson arrivals vary, and a slower commit completes fewer
// closed-loop ops).
func TestWorkloadTailsFollowTheRule(t *testing.T) {
	secs := float64(benchmarkJSON(t).RunSeconds)
	for _, w := range workloads {
		n := int(0.8 * w.opsPerSecond * secs)
		if got := tailPercentile(n); got != w.tail {
			t.Errorf("%s: tail p%v, but %d ops support p%v", w.name, w.tail, n, got)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := benchmarkJSON(t)
	list := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		sort.Strings(out)
		return out
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if got, want := list(endToEnd), list(e2e); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, want)
	}
	if got, want := list(perLayer), list(layer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, want)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if _, err := findWorkload(w.name); err != nil || !strings.Contains(strings.Join(names, " "), w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
}

// annealReply builds an anneal reply the way orpd does, for a small
// solved instance.
func annealReply(t *testing.T, n, r int) (*hsgraph.Graph, serve.AnnealResult) {
	top, err := core.Solve(n, r, core.Options{Iterations: 200, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := hsgraph.Write(&text, top.Graph); err != nil {
		t.Fatal(err)
	}
	return top.Graph, serve.AnnealResult{
		Graph:       fault.NewGraphReport(top.Graph, top.Metrics),
		Fingerprint: top.Graph.Fingerprint().String(),
		GraphText:   text.String(),
		MUsed:       top.MUsed,
	}
}

func TestVerifierRejectsAFlippedEdge(t *testing.T) {
	const n, r = 64, 8
	g, res := annealReply(t, n, r)
	good, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyAnneal(good, n, r, 0); err != nil {
		t.Fatalf("untouched reply rejected: %v", err)
	}

	// Move one end of the first link to a switch that is not yet a
	// neighbour, preferring one with a free port so the text still parses.
	a, b := g.Edge(0)
	c := -1
	for s := 0; s < g.Switches(); s++ {
		if s == a || s == b || g.HasEdge(a, s) {
			continue
		}
		if c < 0 || g.Degree(s) < g.Radix() {
			c = s
		}
		if g.Degree(s) < g.Radix() {
			break
		}
	}
	if c < 0 {
		t.Fatal("no switch to move the link to")
	}
	from, to := fmt.Sprintf("link %d %d\n", min(a, b), max(a, b)), fmt.Sprintf("link %d %d\n", min(a, c), max(a, c))
	if !strings.Contains(res.GraphText, from) {
		t.Fatalf("graphText has no line %q", from)
	}
	res.GraphText = strings.Replace(res.GraphText, from, to, 1)
	bad, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyAnneal(bad, n, r, 0); err == nil {
		t.Fatal("a reply with one link moved verified")
	}

	// Through the op path the failure lands in op.err, which counts in
	// failed.
	ok := newOp(kindAnneal, "t", 0, serve.JobSpec{Type: serve.TypeAnneal, N: n, R: r, Seed: 1})
	flipped := newOp(kindAnneal, "t", 1, serve.JobSpec{Type: serve.TypeAnneal, N: n, R: r, Seed: 2})
	ok.result, flipped.result = good, bad
	v := newVerifier(0)
	v.check(ok)
	v.check(flipped)
	if ok.err != nil || flipped.err == nil {
		t.Fatalf("check: untouched err=%v, flipped err=%v", ok.err, flipped.err)
	}
}

func TestVerifierChecksCacheHitBytes(t *testing.T) {
	spec := genEvalSpec(11)
	g, err := specGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := json.Marshal(serve.EvalResult{Graph: fault.NewGraphReport(g, g.Evaluate()), Fingerprint: g.Fingerprint().String()})
	if err != nil {
		t.Fatal(err)
	}
	first, hit, stale := newOp(kindMiss, "t", 0, spec), newOp(kindHit, "t", 1, spec), newOp(kindHit, "t", 2, spec)
	first.result, hit.result = reply, reply
	stale.result = bytes.Replace(reply, []byte(`"order"`), []byte(` "order"`), 1)
	v := newVerifier(0)
	for _, o := range []*op{first, hit, stale} {
		v.check(o)
	}
	if first.err != nil || hit.err != nil {
		t.Fatalf("identical replies rejected: %v, %v", first.err, hit.err)
	}
	if stale.err == nil {
		t.Fatal("a cache hit that differs from the first reply verified")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	pairs := func(head []float64) [][2]float64 {
		var out [][2]float64
		for i := range base {
			out = append(out, [2]float64{base[i], head[i]})
		}
		return out
	}
	shift := func(d float64) []float64 {
		var out []float64
		for _, b := range base {
			out = append(out, b+d)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		head  []float64
		lower bool
		bound float64
		want  string
	}{
		{"unchanged", shift(0), true, 0.1, "ok"},
		{"slower within bound", shift(5), true, 0.1, "ok"},
		{"slower beyond bound", shift(20), true, 0.1, "regressed"},
		{"faster", shift(-20), true, 0.1, "improved"},
		{"higher is better", shift(20), false, 0.1, "improved"},
		{"noisier than bound", shift(5), true, 0.001, "unresolved"},
		{"noisy but every run better", shift(-10), true, 0.001, "improved"},
	} {
		if got, _ := verdict(base, tc.head, pairs(tc.head), tc.lower, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
