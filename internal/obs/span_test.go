package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func collectTracer(id string) (*Tracer, *[]Event) {
	var mu sync.Mutex
	events := &[]Event{}
	tr := NewTracer(id, time.Now(), func(e Event) {
		mu.Lock()
		*events = append(*events, e)
		mu.Unlock()
	})
	return tr, events
}

func TestSpanTreeRoundTrip(t *testing.T) {
	tr, events := collectTracer("job-1")
	root := tr.Root("job")
	a := root.Child("queue.wait")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("run")
	b.SetF("workers", 4)
	b.SetS("outcome", "done")
	c := b.Child("encode")
	c.End()
	time.Sleep(time.Millisecond)
	b.End()
	root.End()

	roots := BuildSpanTrees(*events)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1: %+v", len(roots), roots)
	}
	r := roots[0]
	if r.Name != "job" || r.Trace != "job-1" {
		t.Fatalf("bad root %+v", r)
	}
	if len(r.Children) != 2 {
		t.Fatalf("got %d children, want 2", len(r.Children))
	}
	if r.Children[0].Name != "queue.wait" || r.Children[1].Name != "run" {
		t.Fatalf("bad child order: %s, %s", r.Children[0].Name, r.Children[1].Name)
	}
	run := r.Children[1]
	if run.F["workers"] != 4 || run.S["outcome"] != "done" {
		t.Fatalf("attrs lost: %+v", run)
	}
	if len(run.Children) != 1 || run.Children[0].Name != "encode" {
		t.Fatalf("missing grandchild: %+v", run.Children)
	}
	if r.Dur <= 0 || run.Dur <= 0 || run.Start < r.Start {
		t.Fatalf("bad timing: root %+v run %+v", r, run)
	}
	// The two children are sequential, so coverage is well-defined and
	// positive; the root also brackets both.
	if f := r.CoveredFraction(); f <= 0 || f > 1.0001 {
		t.Fatalf("covered fraction %v out of range", f)
	}
	if ov := r.MaxSiblingOverlap(); ov > 1e-9 {
		t.Fatalf("sequential spans report overlap %v", ov)
	}
}

func TestNilSpanIsFree(t *testing.T) {
	var s *Span
	allocs := testing.AllocsPerRun(100, func() {
		c := s.Child("x")
		c.SetF("k", 1)
		c.SetS("s", "v")
		c.End()
		c.Fail(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil span allocated %v per run", allocs)
	}
	var tr *Tracer
	if sp := tr.Root("x"); sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if tr.TraceID() != "" {
		t.Fatal("nil tracer has an ID")
	}
}

func TestStartSpanContext(t *testing.T) {
	ctx := context.Background()
	if c, s := StartSpan(ctx, "x"); s != nil || c != ctx {
		t.Fatal("StartSpan without a tracer must be inert")
	}
	tr, events := collectTracer("t")
	root := tr.Root("root")
	ctx = ContextWithSpan(ctx, root)
	ctx2, child := StartSpan(ctx, "child")
	if child == nil || SpanFromContext(ctx2) != child {
		t.Fatal("child not installed")
	}
	child.End()
	root.End()
	roots := BuildSpanTrees(*events)
	if len(roots) != 1 || len(roots[0].Children) != 1 {
		t.Fatalf("bad tree: %+v", roots)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr, events := collectTracer("t")
	s := tr.Root("x")
	s.SetS("outcome", "preempted")
	s.End()
	s.End()
	s.Fail(nil)
	if len(*events) != 1 {
		t.Fatalf("End emitted %d events, want 1", len(*events))
	}
	if (*events)[0].S["outcome"] != "preempted" {
		t.Fatalf("attr lost: %+v", (*events)[0])
	}
}

// TestSpanPeek: Peek reads an open span's event as End would emit it
// now, without emitting or ending it; the later End still emits once.
func TestSpanPeek(t *testing.T) {
	tr, events := collectTracer("t")
	s := tr.Root("run")
	s.SetS("outcome", "done")
	p := s.Peek()
	if len(*events) != 0 {
		t.Fatalf("Peek emitted %d events", len(*events))
	}
	s.End()
	if len(*events) != 1 {
		t.Fatalf("End after Peek emitted %d events, want 1", len(*events))
	}
	e := (*events)[0]
	if p.Kind != KindSpan || p.S["name"] != "run" || p.S["outcome"] != "done" ||
		p.F["id"] != e.F["id"] || p.F["start"] != e.F["start"] || p.F["dur"] > e.F["dur"] {
		t.Fatalf("peek %+v does not match the ended span %+v", p, e)
	}
	var nilSpan *Span
	if got := nilSpan.Peek(); got.Kind != "" {
		t.Fatalf("nil span peeked %+v", got)
	}
}

func TestOrphanSpansPromoted(t *testing.T) {
	// A truncated stream: the parent's event was evicted.
	events := []Event{
		{Kind: KindSpan, F: map[string]float64{"id": 7, "parent": 3, "start": 0.1, "dur": 0.2}, S: map[string]string{"name": "orphan"}},
	}
	roots := BuildSpanTrees(events)
	if len(roots) != 1 || roots[0].Name != "orphan" {
		t.Fatalf("orphan not promoted: %+v", roots)
	}
}

func TestCoveredFraction(t *testing.T) {
	n := &SpanNode{Start: 0, Dur: 10}
	n.Children = []*SpanNode{
		{Start: 0, Dur: 4},
		{Start: 4, Dur: 5},
	}
	if f := n.CoveredFraction(); f < 0.899 || f > 0.901 {
		t.Fatalf("coverage %v, want 0.9", f)
	}
	// Overlapping children are counted once.
	n.Children = append(n.Children, &SpanNode{Start: 2, Dur: 4})
	if f := n.CoveredFraction(); f < 0.899 || f > 0.901 {
		t.Fatalf("coverage with overlap %v, want 0.9", f)
	}
	if ov := n.MaxSiblingOverlap(); ov < 1.999 || ov > 2.001 {
		t.Fatalf("overlap %v, want 2", ov)
	}
}

func TestSpanChromeExport(t *testing.T) {
	tr, events := collectTracer("j1")
	root := tr.Root("job")
	root.Child("run").End()
	root.End()
	rows := SpanTraceEvents(*events)
	var spans int
	for _, r := range rows {
		if r.Ph == "X" {
			spans++
			if r.Cat != "span" {
				t.Fatalf("bad cat %q", r.Cat)
			}
		}
	}
	if spans != 2 {
		t.Fatalf("got %d X rows, want 2", spans)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rows) {
		t.Fatalf("round trip lost rows: %d != %d", len(back), len(rows))
	}
}

func TestWriteSpanTree(t *testing.T) {
	roots := []*SpanNode{{
		Name: "job", Start: 0, Dur: 10,
		Children: []*SpanNode{
			{Name: "queue.wait", Start: 0, Dur: 3},
			{Name: "run", Start: 3, Dur: 7, S: map[string]string{"outcome": "done"}},
		},
	}}
	var buf bytes.Buffer
	if err := WriteSpanTree(&buf, roots, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"job", "queue.wait", "run", "[done]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
}
