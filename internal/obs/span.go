package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Causal span tracing. A Tracer names one trace (an orpd job, a CLI run)
// and hands out Spans — timed intervals with a parent, a name and
// optional attributes — that are emitted as versioned JSONL events
// (KindSpan) when they end. Consumers (cmd/orptrace, cmd/orptop, the
// serve tests) rebuild the tree from the events alone: every span event
// carries its own ID, its parent's ID and its start/duration, so a trace
// is self-describing and survives interleaving with other event kinds in
// the same stream.
//
// The design constraint is the nil path: engines (opt.Anneal,
// fault.Sweep) accept a parent *Span and open children at stage
// boundaries. When no tracer is installed the parent is nil, and every
// Span method on a nil receiver is a no-op — no allocations, no clock
// reads — so the SA hot path pays nothing (benchmark-guarded next to the
// nil-observer guarantee).

// Tracer mints span IDs and routes finished spans to an emit function.
// Safe for concurrent use: ParallelAnneal restarts and scheduler
// goroutines may end spans concurrently.
type Tracer struct {
	traceID string
	epoch   time.Time
	nextID  atomic.Uint64
	emit    func(Event)
}

// NewTracer returns a tracer for one trace. Emitted span events measure
// time relative to epoch (zero means "now"); emit receives one KindSpan
// event per finished span and must be safe for concurrent use.
func NewTracer(traceID string, epoch time.Time, emit func(Event)) *Tracer {
	if epoch.IsZero() {
		epoch = time.Now()
	}
	return &Tracer{traceID: traceID, epoch: epoch, emit: emit}
}

// TraceID returns the trace's identity (nil-safe).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Root opens a top-level span (parent ID 0). Nil-safe: a nil tracer
// returns a nil span.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tr:     t,
		id:     t.nextID.Add(1),
		name:   name,
		startT: time.Now(),
	}
}

// Span is one timed interval in a trace. The zero of *Span (nil) is the
// uninstalled tracer: every method no-ops.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	startT time.Time

	mu    sync.Mutex
	fattr map[string]float64
	sattr map[string]string
	ended bool
}

// Child opens a sub-span. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tr:     s.tr,
		id:     s.tr.nextID.Add(1),
		parent: s.id,
		name:   name,
		startT: time.Now(),
	}
}

// SetF attaches a numeric attribute. Nil-safe.
func (s *Span) SetF(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.fattr == nil {
		s.fattr = make(map[string]float64, 4)
	}
	s.fattr[key] = v
	s.mu.Unlock()
}

// SetS attaches a string attribute. Nil-safe. The keys "name" and
// "trace" are reserved for the span envelope and silently ignored.
func (s *Span) SetS(key, v string) {
	if s == nil || key == "name" || key == "trace" {
		return
	}
	s.mu.Lock()
	if s.sattr == nil {
		s.sattr = make(map[string]string, 4)
	}
	s.sattr[key] = v
	s.mu.Unlock()
}

// End closes the span and emits its event. Nil-safe and idempotent: the
// second End is a no-op, so defer span.End() composes with early exits
// that end the span with an outcome attribute first.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	e := s.eventLocked(now)
	s.mu.Unlock()
	s.tr.emit(e)
}

// Peek returns the event End would emit if called now, without ending
// the span: an open span's interval up to the call. It lets a consumer
// rebuild a trace whose spans are still open (orpd's run-store record,
// built inside the job's last run episode). Nil-safe: a nil span yields
// the zero Event, which span-tree reconstruction ignores.
func (s *Span) Peek() Event {
	if s == nil {
		return Event{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventLocked(time.Now())
}

// eventLocked builds the span's event as of now. Caller holds s.mu.
func (s *Span) eventLocked(now time.Time) Event {
	f := map[string]float64{
		"id":    float64(s.id),
		"start": s.startT.Sub(s.tr.epoch).Seconds(),
		"dur":   now.Sub(s.startT).Seconds(),
	}
	if s.parent != 0 {
		f["parent"] = float64(s.parent)
	}
	for k, v := range s.fattr {
		f[k] = v
	}
	sa := map[string]string{"name": s.name}
	if s.tr.traceID != "" {
		sa["trace"] = s.tr.traceID
	}
	for k, v := range s.sattr {
		sa[k] = v
	}
	return Event{
		T:    now.Sub(s.tr.epoch).Seconds(),
		Kind: KindSpan,
		F:    f,
		S:    sa,
	}
}

// Backdate resets the span's start to t. Nil-safe; no-op after End or
// for a zero t. It exists for owners whose work begins before the
// record holding the tracer does (orpd's admission span covers request
// parsing that happens before the job record is created).
func (s *Span) Backdate(t time.Time) {
	if s == nil || t.IsZero() {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.startT = t
	}
	s.mu.Unlock()
}

// Fail ends the span with an error attribute. Nil-safe; a nil err is a
// plain End.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetS("error", err.Error())
	}
	s.End()
}

// Context propagation. The HTTP layer installs the request's span in the
// context; downstream layers open children with StartSpan without knowing
// whether tracing is on — when it is not, SpanFromContext returns nil and
// the nil-span path costs nothing.

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil when none (or a nil
// one) was installed.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns the
// derived context plus the child. With no span installed it returns ctx
// unchanged and a nil span, keeping the untraced path allocation-free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name)
	return ContextWithSpan(ctx, child), child
}

// SpanNode is one reconstructed span in a trace tree.
type SpanNode struct {
	ID, Parent uint64
	Name       string
	Trace      string
	Start, Dur float64 // seconds relative to the trace epoch
	F          map[string]float64
	S          map[string]string
	Children   []*SpanNode
}

// End returns the span's end time (Start + Dur).
func (n *SpanNode) End() float64 { return n.Start + n.Dur }

// BuildSpanTrees reconstructs span trees from an event stream, ignoring
// non-span kinds. Children are attached by parent ID and sorted by start
// time; spans whose parent never appears in the stream (an evicted or
// truncated prefix) are promoted to roots, so a partial stream still
// yields a forest rather than an error. Roots are returned in start
// order.
func BuildSpanTrees(events []Event) []*SpanNode {
	byID := make(map[uint64]*SpanNode)
	var nodes []*SpanNode
	for _, e := range events {
		if e.Kind != KindSpan {
			continue
		}
		n := &SpanNode{
			ID:     uint64(e.F["id"]),
			Parent: uint64(e.F["parent"]),
			Name:   e.S["name"],
			Trace:  e.S["trace"],
			Start:  e.F["start"],
			Dur:    e.F["dur"],
			F:      make(map[string]float64),
			S:      make(map[string]string),
		}
		for k, v := range e.F {
			switch k {
			case "id", "parent", "start", "dur":
			default:
				n.F[k] = v
			}
		}
		for k, v := range e.S {
			switch k {
			case "name", "trace":
			default:
				n.S[k] = v
			}
		}
		if n.ID == 0 {
			continue // not a well-formed span event
		}
		byID[n.ID] = n
		nodes = append(nodes, n)
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p := byID[n.Parent]; n.Parent != 0 && p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortTree := func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool {
			if ns[i].Start != ns[j].Start {
				return ns[i].Start < ns[j].Start
			}
			return ns[i].ID < ns[j].ID
		})
	}
	var rec func(*SpanNode)
	rec = func(n *SpanNode) {
		sortTree(n.Children)
		for _, c := range n.Children {
			rec(c)
		}
	}
	sortTree(roots)
	for _, r := range roots {
		rec(r)
	}
	return roots
}

// PhaseDurations sums the direct children of a stream's first root span
// by name: the run's wall-time decomposition ("queue.wait" → 1.4s,
// "run" → 12.3s, …), with repeated episodes of the same phase (a
// preempted job's queue.wait/run alternation) accumulated into one
// entry. Returns nil when the stream holds no spans.
func PhaseDurations(events []Event) map[string]float64 {
	roots := BuildSpanTrees(events)
	if len(roots) == 0 {
		return nil
	}
	out := make(map[string]float64, len(roots[0].Children))
	for _, c := range roots[0].Children {
		out[c.Name] += c.Dur
	}
	return out
}

// CoveredFraction reports how much of the root's wall time its direct
// children decompose into, counting overlap between siblings only once
// and clipping children to the root's own interval. 1.0 means the
// children partition the root exactly.
func (n *SpanNode) CoveredFraction() float64 {
	if n.Dur <= 0 {
		return 1
	}
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		lo, hi := c.Start, c.End()
		if lo < n.Start {
			lo = n.Start
		}
		if hi > n.End() {
			hi = n.End()
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, cur float64
	curLo := 0.0
	open := false
	for _, v := range ivs {
		if !open {
			curLo, cur, open = v.lo, v.hi, true
			continue
		}
		if v.lo > cur {
			covered += cur - curLo
			curLo, cur = v.lo, v.hi
			continue
		}
		if v.hi > cur {
			cur = v.hi
		}
	}
	if open {
		covered += cur - curLo
	}
	return covered / n.Dur
}

// MaxSiblingOverlap returns the largest pairwise overlap (seconds)
// between the node's direct children — 0 when they are disjoint. The
// serve trace contract promises disjoint top-level phases; tests assert
// this stays ~0.
func (n *SpanNode) MaxSiblingOverlap() float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		ivs = append(ivs, iv{c.Start, c.End()})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	worst, hi := 0.0, -1.0
	for _, v := range ivs {
		if hi >= 0 && v.lo < hi {
			if ov := hi - v.lo; ov > worst {
				worst = ov
			}
		}
		if v.hi > hi {
			hi = v.hi
		}
	}
	return worst
}

// SpanTraceEvents converts the span events of a stream into Chrome
// trace_event "X" rows (one thread per trace), so a job's JSONL stream
// drops straight into chrome://tracing or Perfetto.
func SpanTraceEvents(events []Event) []TraceEvent {
	var out []TraceEvent
	tids := make(map[string]int)
	for _, e := range events {
		if e.Kind != KindSpan {
			continue
		}
		trace := e.S["trace"]
		tid, ok := tids[trace]
		if !ok {
			tid = len(tids) + 1
			tids[trace] = tid
			out = append(out, MetadataEvent("thread_name", 1, tid, "trace "+trace))
		}
		args := map[string]any{}
		for k, v := range e.F {
			switch k {
			case "id", "parent", "start", "dur":
			default:
				args[k] = v
			}
		}
		for k, v := range e.S {
			if k != "name" && k != "trace" {
				args[k] = v
			}
		}
		if len(args) == 0 {
			args = nil
		}
		out = append(out, TraceEvent{
			Name: e.S["name"],
			Cat:  "span",
			Ph:   "X",
			Ts:   e.F["start"] * 1e6,
			Dur:  e.F["dur"] * 1e6,
			Pid:  1,
			Tid:  tid,
			Args: args,
		})
	}
	return out
}

// WriteSpanTree renders a trace forest as an indented ASCII waterfall:
// one line per span with offset, duration and a proportional bar. Width
// is the bar budget in cells (0 means 32).
func WriteSpanTree(w io.Writer, roots []*SpanNode, width int) error {
	if width <= 0 {
		width = 32
	}
	var total float64
	for _, r := range roots {
		if r.End() > total {
			total = r.End()
		}
	}
	var min float64
	if len(roots) > 0 {
		min = roots[0].Start
	}
	span := total - min
	if span <= 0 {
		span = 1
	}
	var rec func(n *SpanNode, depth int) error
	rec = func(n *SpanNode, depth int) error {
		lo := int(float64(width) * (n.Start - min) / span)
		ln := int(float64(width)*n.Dur/span + 0.5)
		if ln < 1 {
			ln = 1
		}
		if lo+ln > width {
			ln = width - lo
			if ln < 1 {
				lo, ln = width-1, 1
			}
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("█", ln) + strings.Repeat(" ", width-lo-ln)
		label := strings.Repeat("  ", depth) + n.Name
		extra := ""
		if v, ok := n.S["outcome"]; ok {
			extra = " [" + v + "]"
		}
		if v, ok := n.S["error"]; ok {
			extra += " !" + v
		}
		if _, err := fmt.Fprintf(w, "  %-34s %s %9.3fms @%9.3fms%s\n",
			truncate(label, 34), bar, n.Dur*1e3, (n.Start-min)*1e3, extra); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := rec(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := rec(r, 0); err != nil {
			return err
		}
	}
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}
