// Package cliutil holds the small pieces shared by the orp* commands:
// uniform -workers validation, the -metrics-addr endpoint bring-up, and
// the -progress / -trace-out anneal observer. It keeps the CLIs thin and
// the telemetry wiring identical across tools.
package cliutil

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/opt"
)

// Workers validates a -workers flag value: negatives are rejected, zero
// means "auto" (the engines resolve it to GOMAXPROCS or a share of it),
// positives pass through.
func Workers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-workers must be >= 0 (0 = auto), got %d", n)
	}
	return n, nil
}

// StartMetrics brings up the telemetry HTTP endpoint when addr is
// non-empty and announces the bound address on stderr (addr may end in
// ":0"; the printed address carries the chosen port). Returns nil when
// addr is empty. Callers should defer srv.Close().
func StartMetrics(addr string, r *obs.Registry) (*obs.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.Serve(addr, r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", srv.Addr)
	return srv, nil
}

// OpenSink creates path (truncating any existing file) and wraps it in a
// JSONL event sink. Returns nil when path is empty. Close flushes and
// closes the file.
func OpenSink(path string) (*SinkFile, error) {
	return openSink(path, false)
}

// AppendSink opens path for appending — the mode -resume needs: a
// resumed run continues the interrupted run's event log instead of
// truncating it (the bug OpenSink's os.Create forced on every caller).
// The schema header is only emitted when the file is new or empty, so an
// appended stream still carries exactly one header. Returns nil when
// path is empty.
func AppendSink(path string) (*SinkFile, error) {
	return openSink(path, true)
}

func openSink(path string, appendMode bool) (*SinkFile, error) {
	if path == "" {
		return nil, nil
	}
	if !appendMode {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return &SinkFile{Sink: obs.NewJSONLSink(f), f: f}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > 0 {
		return &SinkFile{Sink: obs.NewJSONLSinkContinue(f), f: f}, nil
	}
	return &SinkFile{Sink: obs.NewJSONLSink(f), f: f}, nil
}

// Interrupt installs the shared SIGINT/SIGTERM handling of the orp*
// commands and returns the flag the engines poll (opt.Options.Interrupt,
// fault.SweepOptions.Interrupt). The first signal arms the flag — the
// engine writes a final checkpoint and returns ckpt.ErrInterrupted; a
// second signal aborts immediately with the conventional 128+SIGINT
// status.
func Interrupt() *atomic.Bool {
	flag := &atomic.Bool{}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		flag.Store(true)
		fmt.Fprintln(os.Stderr, "interrupted: saving checkpoint and exiting (signal again to abort)")
		<-ch
		os.Exit(130)
	}()
	return flag
}

// SinkFile is a JSONLSink bound to a file it owns.
type SinkFile struct {
	Sink *obs.JSONLSink
	f    *os.File
}

// Close flushes the sink and closes the file. The sink's Close flushes
// buffered events even when a mid-stream write error poisoned it (the
// intact prefix reaches the file; the sticky error is returned), and
// the file is always closed.
func (s *SinkFile) Close() error {
	if s == nil {
		return nil
	}
	serr := s.Sink.Close()
	ferr := s.f.Close()
	if serr != nil {
		return serr
	}
	return ferr
}

// Emit writes one event (no-op on a nil SinkFile).
func (s *SinkFile) Emit(e obs.Event) error {
	if s == nil {
		return nil
	}
	return s.Sink.Emit(e)
}

// SpanCollector buffers span events in memory so a CLI can compute its
// run's wall-time decomposition (obs.PhaseDurations) for a run-store
// record, independently of whether a -trace-out sink is also writing
// them to disk. Safe for concurrent use (ParallelAnneal restarts end
// spans concurrently).
type SpanCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

// Add records one event (only span events are kept).
func (c *SpanCollector) Add(e obs.Event) {
	if c == nil || e.Kind != obs.KindSpan {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns the collected span events.
func (c *SpanCollector) Events() []obs.Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// TeeTracer returns a tracer emitting to the sink (when non-nil) and
// the collector (when non-nil). With both nil it returns a nil tracer,
// keeping every span call on the zero-cost nil path — the tracer only
// exists when at least one consumer does.
func TeeTracer(id string, sink *SinkFile, col *SpanCollector) *obs.Tracer {
	if sink == nil && col == nil {
		return nil
	}
	return obs.NewTracer(id, time.Time{}, func(e obs.Event) {
		if sink != nil {
			sink.Emit(e)
		}
		col.Add(e)
	})
}

// AnnealObserver adapts anneal telemetry to the CLI surfaces: optional
// progress lines on stderr, optional JSONL anneal.sample events, and
// optional live gauges in an obs.Registry. Safe for concurrent use, so it
// can be shared by ParallelAnneal restarts; nil-field surfaces cost
// nothing.
type AnnealObserver struct {
	mu sync.Mutex

	// Progress prints one line per sample to stderr.
	Progress bool
	// Sink receives anneal.sample events (opt.AnnealSample.Event).
	Sink *SinkFile

	// Registry gauges (nil unless built by NewAnnealObserver with one).
	iter, temp, current, best, acceptRate, movesPerSec *obs.Gauge
}

// NewAnnealObserver wires the requested surfaces. reg and sink may each
// be nil; progress controls stderr lines. Returns nil when every surface
// is off, which keeps the annealer on its zero-cost nil-observer path.
func NewAnnealObserver(reg *obs.Registry, sink *SinkFile, progress bool) *AnnealObserver {
	if reg == nil && sink == nil && !progress {
		return nil
	}
	ao := &AnnealObserver{Progress: progress, Sink: sink}
	if reg != nil {
		ao.iter = reg.Gauge("anneal_iterations", "Iterations completed (latest restart to report).")
		ao.temp = reg.Gauge("anneal_temperature", "Current annealing temperature.")
		ao.current = reg.Gauge("anneal_current_energy", "Current total path length.")
		ao.best = reg.Gauge("anneal_best_energy", "Best total path length so far.")
		ao.acceptRate = reg.Gauge("anneal_accept_rate", "Cumulative accepted/proposed moves.")
		ao.movesPerSec = reg.Gauge("anneal_moves_per_sec", "Iteration rate over the last interval.")
	}
	return ao
}

// ObserveAnneal implements opt.Observer.
func (ao *AnnealObserver) ObserveAnneal(s opt.AnnealSample) {
	if ao.iter != nil {
		ao.iter.Set(float64(s.Iter))
		ao.temp.Set(s.Temp)
		ao.current.Set(float64(s.Current))
		ao.best.Set(float64(s.Best))
		ao.acceptRate.Set(s.AcceptRate())
		ao.movesPerSec.Set(s.MovesPerSec)
	}
	if ao.Sink == nil && !ao.Progress {
		return
	}
	ao.mu.Lock()
	defer ao.mu.Unlock()
	if ao.Progress {
		fmt.Fprintf(os.Stderr, "iter %8d/%d  current %12d  best %12d  accept %.3f  %.0f moves/s\n",
			s.Iter, s.Iterations, s.Current, s.Best, s.AcceptRate(), s.MovesPerSec)
	}
	if ao.Sink != nil {
		ao.Sink.Emit(s.Event())
	}
}
