package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// Config configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 1024-entry cache, checkpoints in a fresh temp dir.
type Config struct {
	// Workers is the global worker budget shared by every concurrent
	// job. 0 means GOMAXPROCS.
	Workers int
	// CacheSize is the result-cache capacity in entries. 0 means 1024.
	// The cache is load-bearing for the service's latency contract, so
	// it cannot be disabled; values < 1 are treated as a 1-entry cache.
	CacheSize int
	// DataDir holds per-job checkpoint files. "" creates a temp dir
	// owned by the server (removed on Close).
	DataDir string
	// StoreDir, when non-empty, enables the persistent run store
	// (internal/runstore): every completed job is appended as a durable
	// record, and result-cache misses fall through to the store — so a
	// previously-served query gets a byte-identical reply even after an
	// LRU eviction or a process restart. "" disables persistence (the
	// cache is memory-only, the pre-store behaviour).
	StoreDir string
	// Registry receives the orpd_* instruments and is served at
	// /metrics. Nil builds a private one.
	Registry *obs.Registry
	// Retention bounds how long finished jobs (done or failed) stay
	// queryable after they finish. Zero keeps them forever (the
	// pre-retention behaviour). Expired records are garbage-collected
	// lazily on API access and scheduling activity and counted by
	// orpd_jobs_evicted_total; queued and running jobs are never
	// collected. Cached results outlive the job record — the result
	// cache has its own LRU bound.
	Retention time.Duration
}

// Endpoint labels of the RED instrument set.
var apiEndpoints = []string{"submit", "list", "get", "events", "history"}

// metrics is the orpd instrument set.
type metrics struct {
	reg                                   *obs.Registry
	submitted, done, failed, hits, misses *obs.Counter
	preemptions, evicted                  *obs.Counter
	queueDepth, workersBusy               *obs.Gauge
	jobSeconds, httpSeconds               *obs.Histogram

	// RED per endpoint: request counters by status class and latency
	// histograms, exposed as labeled children of
	// orpd_http_requests_total / orpd_http_request_seconds.
	httpReq map[string]map[string]*obs.Counter // endpoint -> class -> counter
	httpSec map[string]*obs.Histogram          // endpoint -> latency histogram

	// Incremental-cache introspection, aggregated across jobs from the
	// per-restart EvalStats deltas (see logObserver).
	incSyncs, incRebuilds, incPeekReuses, incSwept *obs.Counter
	incDirty                                       *obs.Counter

	// Persistent run store (all zero while no -store dir is configured).
	storeAppends, storeLookups, storeHits, storeErrors *obs.Counter
	storeRecords, storeSkipped                         *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		reg:         reg,
		submitted:   reg.Counter("orpd_jobs_submitted_total", "Jobs accepted by POST /v1/jobs."),
		done:        reg.Counter("orpd_jobs_done_total", "Jobs finished successfully (cache hits included)."),
		failed:      reg.Counter("orpd_jobs_failed_total", "Jobs that ended in an error."),
		hits:        reg.Counter("orpd_cache_hits_total", "Submissions answered from the result cache."),
		misses:      reg.Counter("orpd_cache_misses_total", "Submissions that had to run an engine."),
		preemptions: reg.Counter("orpd_preemptions_total", "Checkpoint preemptions of running jobs."),
		evicted:     reg.Counter("orpd_jobs_evicted_total", "Finished job records dropped by retention GC."),
		queueDepth:  reg.Gauge("orpd_queue_depth", "Jobs waiting for workers."),
		workersBusy: reg.Gauge("orpd_workers_busy", "Workers currently granted to running jobs."),
		jobSeconds:  reg.Histogram("orpd_job_seconds", "Wall-clock of one engine run.", obs.ExpBuckets(1e-4, 2, 24)),
		httpSeconds: reg.Histogram("orpd_http_request_seconds", "Wall-clock of one API request.", obs.ExpBuckets(1e-5, 2, 22)),

		incSyncs:      reg.Counter("orpd_inc_syncs_total", "Incremental-cache commits with pending work."),
		incRebuilds:   reg.Counter("orpd_inc_full_rebuilds_total", "Incremental-cache commits that fell back to a full rebuild."),
		incPeekReuses: reg.Counter("orpd_inc_stored_peek_reuses_total", "Incremental-cache commits that re-swept the dirty list stamped by a peek of the same state."),
		incSwept:      reg.Counter("orpd_inc_swept_sources_total", "Source rows swept into the incremental cache."),
		incDirty:      reg.Counter("orpd_inc_dirty_sources_total", "Dirty sources seen at incremental-cache commits."),

		storeAppends: reg.Counter("orpd_store_appends_total", "Run records appended to the persistent store."),
		storeLookups: reg.Counter("orpd_store_lookups_total", "Result-cache misses that consulted the persistent store."),
		storeHits:    reg.Counter("orpd_store_hits_total", "Submissions answered from the persistent store (and re-promoted into the cache)."),
		storeErrors:  reg.Counter("orpd_store_append_errors_total", "Failed appends to the persistent run store."),
		storeRecords: reg.Gauge("orpd_store_records", "Live records in the persistent run store."),
		storeSkipped: reg.Gauge("orpd_store_skipped_records", "Corrupt or foreign regions skipped when the store was opened."),

		httpReq: make(map[string]map[string]*obs.Counter),
		httpSec: make(map[string]*obs.Histogram),
	}
	for _, ep := range apiEndpoints {
		m.httpReq[ep] = make(map[string]*obs.Counter)
		for _, class := range []string{"2xx", "4xx", "5xx"} {
			m.httpReq[ep][class] = reg.Counter(
				fmt.Sprintf(`orpd_http_requests_total{endpoint=%q,code=%q}`, ep, class),
				"API requests by endpoint and status class.")
		}
		m.httpSec[ep] = reg.Histogram(
			fmt.Sprintf(`orpd_http_request_seconds{endpoint=%q}`, ep),
			"Wall-clock of one API request.", obs.ExpBuckets(1e-5, 2, 22))
	}
	return m
}

// httpObserve records one finished API request in the RED set. The
// events endpoint passes seconds < 0: its duration is the client's
// follow-session length, which would poison the latency histograms.
func (m *metrics) httpObserve(endpoint string, code int, seconds float64) {
	class := fmt.Sprintf("%dxx", code/100)
	byClass, ok := m.httpReq[endpoint]
	if !ok {
		return
	}
	if c, ok := byClass[class]; ok {
		c.Inc()
	}
	if seconds >= 0 {
		m.httpSec[endpoint].Observe(seconds)
		m.httpSeconds.Observe(seconds)
	}
}

// queueWait returns the per-priority queue-wait histogram, registering
// the labeled child on first use (priorities are client-chosen ints).
func (m *metrics) queueWait(priority int) *obs.Histogram {
	return m.reg.Histogram(
		fmt.Sprintf(`orpd_queue_wait_seconds{priority="%d"}`, priority),
		"Queue wait before each run episode, by job priority.", obs.ExpBuckets(1e-4, 2, 24))
}

// Server is the orpd service core: scheduler + cache + HTTP API. Wire
// Handler into an http.Server (cmd/orpd does) or call it directly in
// tests and benchmarks.
type Server struct {
	sched   *scheduler
	cache   *resultCache
	store   *runstore.Store // nil without Config.StoreDir
	met     *metrics
	mux     *http.ServeMux
	dataDir string
	ownsDir bool
	started time.Time
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	size := cfg.CacheSize
	if size == 0 {
		size = 1024
	}
	dataDir, ownsDir := cfg.DataDir, false
	if dataDir == "" {
		d, err := os.MkdirTemp("", "orpd-*")
		if err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
		dataDir, ownsDir = d, true
	} else if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	met := newMetrics(reg)
	cache := newResultCache(size)
	var store *runstore.Store
	if cfg.StoreDir != "" {
		var err error
		store, err = runstore.Open(cfg.StoreDir)
		if err != nil {
			if ownsDir {
				os.RemoveAll(dataDir)
			}
			return nil, fmt.Errorf("serve: run store: %w", err)
		}
		st := store.Stats()
		met.storeRecords.Set(float64(st.Records))
		met.storeSkipped.Set(float64(st.SkippedRecords))
	}
	s := &Server{
		sched:   newScheduler(cfg.Workers, cache, store, dataDir, met, cfg.Retention),
		cache:   cache,
		store:   store,
		met:     met,
		dataDir: dataDir,
		ownsDir: ownsDir,
		started: time.Now(),
	}
	s.mux = s.buildMux()
	return s, nil
}

// Handler returns the API handler (Go 1.22 pattern routes):
//
//	POST /v1/jobs             submit a JobSpec
//	GET  /v1/jobs             list jobs (submission order; ?state= filters)
//	GET  /v1/jobs/{id}        job status + result
//	GET  /v1/jobs/{id}/events replay + follow the job's JSONL events (?follow=0 for replay only)
//	GET  /v1/history          persistent run records, newest first (?n= limits)
//	GET  /metrics             Prometheus exposition
//	GET  /healthz             liveness (JSON: version, uptime, workers, store)
//	GET  /debug/pprof/...     standard profiles
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.timed("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.timed("list", s.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.timed("get", s.handleGet))
	// Long-lived: counted in the RED request counters but kept out of
	// the latency histograms (a follow session lasts as long as its job).
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.counted("events", s.handleEvents))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, s.met.reg)
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/history", s.timed("history", s.handleHistory))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	return mux
}

// statusWriter captures the response code for the RED counters. It
// forwards Flush so the events stream keeps its incremental delivery.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK // implicit 200 on first Write
	}
	return w.code
}

func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.met.httpObserve(endpoint, sw.status(), time.Since(start).Seconds())
	}
}

func (s *Server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		s.met.httpObserve(endpoint, sw.status(), -1)
	}
}

// Submit queues (or cache-answers) a job without going through HTTP.
// The perf workloads and tests drive the server through this.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) { return s.sched.Submit(spec) }

// Wait blocks until the job finishes.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	return s.sched.Wait(ctx, id)
}

// Drain gracefully stops the scheduler: see scheduler.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Close drains with a short deadline and removes the owned data dir.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	if s.ownsDir {
		os.RemoveAll(s.dataDir)
	}
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// HealthStatus is the GET /healthz payload: liveness plus enough
// identity to tell which build is serving and whether its history
// survives restarts.
type HealthStatus struct {
	Status        string  `json:"status"` // always "ok" when the process can answer
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Workers       int     `json:"workers"` // global worker budget

	Store StoreStatus `json:"store"`
}

// StoreStatus describes the persistent run store in /healthz.
type StoreStatus struct {
	Enabled        bool   `json:"enabled"`
	Path           string `json:"path,omitempty"`
	Records        int    `json:"records,omitempty"`
	SkippedRecords int    `json:"skippedRecords,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := HealthStatus{
		Status:        "ok",
		Version:       buildinfo.Get().Version,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       s.sched.budget,
	}
	if s.store != nil {
		stats := s.store.Stats()
		st.Store = StoreStatus{
			Enabled:        true,
			Path:           s.store.Dir(),
			Records:        stats.Records,
			SkippedRecords: stats.SkippedRecords,
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleHistory serves the persistent run history, newest first (?n=
// limits the count). Without a configured store it returns an empty
// list — the endpoint shape does not depend on deployment flags.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad n %q", q)})
			return
		}
		limit = n
	}
	recs := s.store.Recent(limit)
	if recs == nil {
		recs = []runstore.Record{}
	}
	writeJSON(w, http.StatusOK, recs)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	st, err := s.sched.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, apiError{err.Error()})
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK // cache hit: the result is already in the payload
	}
	writeJSON(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed:
	default:
		writeJSON(w, http.StatusBadRequest, apiError{fmt.Sprintf(
			"unknown state %q (want %s, %s, %s or %s)",
			state, StateQueued, StateRunning, StateDone, StateFailed)})
		return
	}
	writeJSON(w, http.StatusOK, s.sched.List(state))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the job's event log as JSONL: full replay first,
// then live follow until the job finishes or the client goes away
// (?follow=0 stops after the replay). The stream is exactly the schema
// of the CLIs' -trace-out files, starting with the versioned obs header.
//
// The log is ring-buffered; a reader that falls more than the buffer
// capacity behind receives a stream.gap event naming how many events
// were dropped and then continues from the live window. The stream is
// therefore always well-formed JSONL and always terminates once the job
// is done — never a hang, never a torn record.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log, ok := s.sched.Events(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	follow := r.URL.Query().Get("follow") != "0"

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	next := 0
	for {
		batch, n, dropped, closed, changed := log.ReadFrom(next)
		if dropped > 0 {
			if enc.Encode(obs.Event{Kind: KindStreamGap,
				F: map[string]float64{"dropped": float64(dropped)}}) != nil {
				return
			}
		}
		for _, e := range batch {
			if enc.Encode(e) != nil {
				return
			}
		}
		if len(batch) > 0 || dropped > 0 {
			flush()
		}
		next = n
		if closed && len(batch) == 0 {
			return // drained past the final event
		}
		if !follow && len(batch) == 0 {
			return // replay-only mode: caught up with the live window
		}
		if !closed && len(batch) == 0 {
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			}
		}
	}
}
