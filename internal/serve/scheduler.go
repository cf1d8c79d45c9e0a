package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// jobHeap orders queued jobs: higher priority first, FIFO (submission
// seq) within a priority level.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// scheduler owns the queue, the worker budget and every job record. One
// budget is shared by all concurrent jobs: a job "demands" its granted
// worker count while running, and a queued job that cannot fit preempts
// strictly-lower-priority checkpointable jobs to make room (elastic
// scheduling — the preempted work is not lost, it resumes from its
// snapshot bit-identically once capacity frees up).
//
// Scheduling is strict priority with no backfill: while the
// highest-priority queued job waits for workers, nothing behind it
// starts. That forfeits some utilisation but makes latency of the
// urgent job independent of the queue behind it.
//
// Every job carries its own obs.Tracer writing into its event log: the
// scheduler opens the root "job" span at submit and one child per phase
// (admission, cache.lookup, then alternating queue.wait and run
// episodes), so a job's event stream decomposes its wall time into
// disjoint intervals — including across preemptions.
type scheduler struct {
	mu        sync.Mutex
	cond      *sync.Cond // broadcast on every running-set change (drain waits on it)
	budget    int
	free      int
	seq       uint64
	jobs      map[string]*job
	order     []*job // submission order, for listing
	queue     jobHeap
	running   map[*job]*atomic.Bool // job -> its current interrupt flag
	cache     *resultCache
	store     *runstore.Store // nil when no -store dir is configured
	dataDir   string
	met       *metrics
	retention time.Duration // 0 = keep finished jobs forever
	drained   bool

	clock func() time.Time // test hook; time.Now in production
}

func newScheduler(budget int, cache *resultCache, store *runstore.Store, dataDir string, met *metrics, retention time.Duration) *scheduler {
	if budget < 1 {
		budget = runtime.GOMAXPROCS(0)
	}
	s := &scheduler{
		budget:    budget,
		free:      budget,
		jobs:      make(map[string]*job),
		running:   make(map[*job]*atomic.Bool),
		cache:     cache,
		store:     store,
		dataDir:   dataDir,
		met:       met,
		retention: retention,
		clock:     time.Now,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Submit validates the spec, answers it from the result cache when the
// canonical job identity is already known, and otherwise queues it.
func (s *scheduler) Submit(spec JobSpec) (JobStatus, error) {
	accepted := time.Now() // admission span starts at arrival, before parsing
	g, model, err := spec.normalize()
	if err != nil {
		return JobStatus{}, err
	}
	key := spec.cacheKey(g)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	if s.drained {
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%08d", s.seq),
		seq:       s.seq,
		spec:      spec,
		key:       key,
		graph:     g,
		model:     model,
		workers:   clamp(spec.Workers, 1, s.budget),
		submitted: s.clock(),
		log:       newEventLog(),
		doneCh:    make(chan struct{}),
	}
	j.preemptible = spec.Type != TypeEval
	if s.dataDir != "" {
		j.ckptPath = filepath.Join(s.dataDir, j.id+".orpc")
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.met.submitted.Inc()

	// The job's trace: one tracer per job (trace ID = job ID, epoch =
	// arrival), emitting span events into the job's own log. The root
	// "job" span is backdated to arrival so admission work done before
	// the record existed is still inside it.
	j.tracer = obs.NewTracer(j.id, accepted, j.log.Append)
	j.root = j.tracer.Root("job")
	j.root.SetS("type", spec.Type)
	j.root.SetF("priority", float64(spec.Priority))
	adm := j.root.Child("admission")
	adm.SetF("workers", float64(j.workers))
	backdate(j.root, accepted)
	backdate(adm, accepted)
	adm.End()

	lsp := j.root.Child("cache.lookup")
	cached, hit := s.cache.Get(key)
	fromStore := false
	if !hit && s.store != nil {
		// LRU miss: fall through to the persistent store. A hit
		// re-promotes the stored bytes into the in-memory cache, so the
		// next lookup is answered without touching disk. The bytes are
		// the original run's verbatim reply — byte-identity holds across
		// eviction and across process restarts.
		s.met.storeLookups.Inc()
		if b := s.store.LookupResult(key); b != nil {
			cached, hit, fromStore = json.RawMessage(b), true, true
			s.cache.Put(key, cached)
			s.met.storeHits.Inc()
		}
	}
	lsp.SetF("hit", b2f(hit))
	lsp.SetF("store", b2f(fromStore))
	lsp.End()
	if hit {
		now := s.clock()
		j.state, j.cached, j.result = StateDone, true, cached
		j.started, j.finished = &now, &now
		s.met.hits.Inc()
		s.met.done.Inc()
		j.root.SetS("outcome", "done")
		j.root.SetF("cached", 1)
		j.root.End()
		j.log.Close(jobDoneEvent(j, 0))
		close(j.doneCh)
		return j.status(), nil
	}
	s.met.misses.Inc()

	j.state = StateQueued
	s.enqueueLocked(j)
	s.schedule()
	return j.status(), nil
}

// backdate is a deliberate narrow hack: spans record their start at
// Child() time, but the job record (and so the tracer) only exists
// after spec parsing. Resetting the start to the request's arrival
// keeps the admission span honest about parse cost.
func backdate(sp *obs.Span, to time.Time) {
	if sp == nil {
		return
	}
	sp.Backdate(to)
}

// enqueueLocked pushes j onto the queue and opens its queue.wait span
// episode. Caller holds s.mu.
func (s *scheduler) enqueueLocked(j *job) {
	j.queuedAt = s.clock()
	j.waitSpan = j.root.Child("queue.wait")
	j.waitSpan.SetF("episode", float64(j.preemptions))
	heap.Push(&s.queue, j)
	s.met.queueDepth.Set(float64(s.queue.Len()))
	j.log.Append(obs.Event{Kind: KindJobQueued, F: map[string]float64{
		"priority": float64(j.spec.Priority), "workers": float64(j.workers),
	}})
}

// ErrDraining rejects submissions while the server shuts down.
var ErrDraining = errors.New("serve: server is draining")

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// schedule starts queued jobs while the budget allows, arming
// preemptions when the head of the queue outranks running work. Caller
// holds s.mu.
func (s *scheduler) schedule() {
	if s.drained {
		return
	}
	for s.queue.Len() > 0 {
		top := s.queue[0]
		if s.free >= top.workers {
			heap.Pop(&s.queue)
			s.met.queueDepth.Set(float64(s.queue.Len()))
			s.start(top)
			continue
		}
		s.preemptFor(top)
		return // strict priority: nothing behind top starts before it
	}
}

// start transitions j to running and launches its engine goroutine.
// Caller holds s.mu.
func (s *scheduler) start(j *job) {
	intr := &atomic.Bool{}
	s.free -= j.workers
	j.state = StateRunning
	j.preempting = false
	now := s.clock()
	if j.started == nil {
		j.started = &now
	}
	s.running[j] = intr
	s.met.workersBusy.Set(float64(s.budget - s.free))
	s.cond.Broadcast()

	// Close this queue-wait episode: span + per-priority histogram.
	j.waitSpan.End()
	j.waitSpan = nil
	s.met.queueWait(j.spec.Priority).Observe(now.Sub(j.queuedAt).Seconds())

	// Open the run episode; the engine goroutine owns it until it ends
	// it (done, failed or preempted).
	j.runSpan = j.root.Child("run")
	j.runSpan.SetF("episode", float64(j.preemptions))
	j.runSpan.SetF("workers", float64(j.workers))
	j.runSpan.SetF("resume", b2f(j.resume))

	j.log.Append(obs.Event{Kind: KindJobRunning, F: map[string]float64{
		"priority": float64(j.spec.Priority), "workers": float64(j.workers),
		"resume": b2f(j.resume),
	}})
	go s.run(j, intr)
}

// preemptFor arms interrupts on strictly-lower-priority preemptible
// jobs — cheapest victims first — until the workers they will release
// (plus the currently free ones) cover top's demand. If the demand can
// never be covered this way, nothing is armed beyond what helps.
// Caller holds s.mu.
func (s *scheduler) preemptFor(top *job) {
	projected := s.free
	var victims []*job
	for j := range s.running {
		if j.preempting {
			projected += j.workers // already unwinding; its workers are coming back
			continue
		}
		if j.preemptible && j.spec.Priority < top.spec.Priority && j.ckptPath != "" {
			victims = append(victims, j)
		}
	}
	if projected >= top.workers {
		return // enough is already unwinding
	}
	// Lowest priority first; youngest first within a level (preserve the
	// longest-running work).
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].spec.Priority != victims[b].spec.Priority {
			return victims[a].spec.Priority < victims[b].spec.Priority
		}
		return victims[a].seq > victims[b].seq
	})
	for _, v := range victims {
		if projected >= top.workers {
			break
		}
		v.preempting = true
		s.running[v].Store(true)
		projected += v.workers
		s.met.preemptions.Inc()
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// run executes j's engine off the scheduler lock and routes the outcome:
// interrupted-and-preempting jobs go back to the queue (to resume from
// their checkpoint), everything else completes.
func (s *scheduler) run(j *job, intr *atomic.Bool) {
	started := time.Now()
	result, err := s.execute(j, intr)
	elapsed := time.Since(started).Seconds()

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, j)
	s.free += j.workers
	s.met.workersBusy.Set(float64(s.budget - s.free))
	s.cond.Broadcast()

	if err != nil && errors.Is(err, ckpt.ErrInterrupted) && (j.preempting || s.drained) {
		// Preempted (or drained): the engine flushed its snapshot. The
		// job re-queues and its next run resumes bit-identically.
		j.state = StateQueued
		j.preempting = false
		j.resume = true
		j.preemptions++
		j.runSpan.SetS("outcome", "preempted")
		j.runSpan.End()
		j.runSpan = nil
		j.log.Append(obs.Event{T: elapsed, Kind: KindJobPreempted, F: map[string]float64{
			"preemptions": float64(j.preemptions),
		}})
		s.enqueueLocked(j)
		s.schedule()
		return
	}

	now := s.clock()
	j.finished = &now
	if err != nil {
		j.state = StateFailed
		j.err = err
		s.met.failed.Inc()
		j.runSpan.SetS("outcome", "failed")
		j.runSpan.Fail(err)
	} else {
		j.state = StateDone
		j.result = result
		s.cache.Put(j.key, result)
		s.met.done.Inc()
		j.runSpan.SetS("outcome", "done")
		j.runSpan.End()
	}
	j.runSpan = nil
	if j.ckptPath != "" {
		removeCheckpoints(j.ckptPath, j.spec.Restarts)
	}
	s.met.jobSeconds.Observe(elapsed)
	j.root.SetF("preemptions", float64(j.preemptions))
	if j.err != nil {
		j.root.SetS("outcome", "failed")
	} else {
		j.root.SetS("outcome", "done")
	}
	j.root.End()
	j.log.Close(jobDoneEvent(j, elapsed))
	close(j.doneCh)
	if err == nil {
		s.recordRunLocked(j)
	}
	s.schedule()
}

// recordRunLocked appends a finished job to the persistent run store.
// Called after the job's root span ended (so the event log holds the
// complete wall-time decomposition) and only on success — failed jobs
// and cache hits are not history. The append is synchronous under the
// scheduler lock: one write+fsync per completed engine run, a rate the
// scheduler cannot outpace. A nil store skips everything, including
// building the record. Caller holds s.mu.
func (s *scheduler) recordRunLocked(j *job) {
	storeErr := s.store.AppendRun(func() runstore.Record {
		// The result payload is schema-typed per job type, but every
		// schema shares the fingerprint/graph envelope (and anneals add
		// the convergence trace); probe just those fields.
		var probe struct {
			Fingerprint string            `json:"fingerprint"`
			Graph       fault.GraphReport `json:"graph"`
			Anneal      *struct {
				EnergyTrace       []float64
				EnergyTraceStride int
			} `json:"anneal"`
		}
		_ = json.Unmarshal(j.result, &probe)
		rec := runstore.Record{
			Unix:        time.Now().UnixNano(),
			Tool:        "orpd",
			Kind:        j.spec.Type,
			Build:       buildinfo.Get().String(),
			Key:         j.key,
			Fingerprint: probe.Fingerprint,
			Seed:        j.spec.Seed,
			N:           probe.Graph.Order,
			M:           probe.Graph.Switches,
			R:           probe.Graph.Radix,
			Workers:     j.workers,
			Metrics: runstore.Metrics{
				HASPL:          probe.Graph.HASPL,
				Diameter:       probe.Graph.Diameter,
				Connected:      probe.Graph.Connected,
				TotalPath:      probe.Graph.TotalPath,
				ReachablePairs: probe.Graph.ReachablePairs,
			},
			Phases:      runstore.PhasesFromDurations(obs.PhaseDurations(j.log.Snapshot())),
			WallSeconds: j.finished.Sub(j.submitted).Seconds(),
			Result:      j.result,
		}
		if probe.Anneal != nil {
			rec.EnergyTrace = probe.Anneal.EnergyTrace
			rec.EnergyTraceStride = probe.Anneal.EnergyTraceStride
		}
		return rec
	})
	if s.store == nil {
		return
	}
	if storeErr != nil {
		s.met.storeErrors.Inc()
		return
	}
	s.met.storeAppends.Inc()
	s.met.storeRecords.Set(float64(s.store.Len()))
}

func jobDoneEvent(j *job, elapsed float64) obs.Event {
	e := obs.Event{T: elapsed, Kind: KindJobDone, F: map[string]float64{
		"cached": b2f(j.cached), "failed": b2f(j.state == StateFailed),
		"preemptions": float64(j.preemptions),
	}}
	if j.err != nil {
		e.S = map[string]string{"error": j.err.Error()}
	}
	return e
}

// removeCheckpoints deletes a finished job's snapshot files (multi-
// restart anneals write one per restart via opt.RestartCheckpointPath).
func removeCheckpoints(path string, restarts int) {
	os.Remove(path)
	if restarts > 1 {
		for i := 0; i < restarts; i++ {
			os.Remove(fmt.Sprintf("%s.r%d", path, i))
		}
	}
}

// gcLocked drops finished job records older than the retention window.
// Queued and running jobs are never touched; the result cache keeps its
// own (LRU-bounded) copy of the payload, so a resubmission after
// eviction is still a cache hit. Caller holds s.mu.
func (s *scheduler) gcLocked() {
	if s.retention <= 0 || len(s.order) == 0 {
		return
	}
	cutoff := s.clock().Add(-s.retention)
	kept := s.order[:0]
	for _, j := range s.order {
		if (j.state == StateDone || j.state == StateFailed) &&
			j.finished != nil && j.finished.Before(cutoff) {
			delete(s.jobs, j.id)
			s.met.evicted.Inc()
			continue
		}
		kept = append(kept, j)
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil // release the evicted records
	}
	s.order = kept
}

// Get returns a job's status.
func (s *scheduler) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// List returns jobs in submission order (a stable order: evictions only
// remove elements, never reorder them). A non-empty state keeps only
// jobs currently in that state.
func (s *scheduler) List(state string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		if state != "" && j.state != state {
			continue
		}
		out = append(out, j.status())
	}
	return out
}

// Events returns a job's event log.
func (s *scheduler) Events(id string) (*eventLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.log, true
}

// Wait blocks until the job reaches done or failed, or ctx is done.
func (s *scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: no job %q", id)
	}
	select {
	case <-j.doneCh:
		return j.statusLocked(s), nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// statusLocked takes the scheduler lock and snapshots j. Unlike Get it
// holds the job pointer, so it works even after retention GC dropped
// the record from the index.
func (j *job) statusLocked(s *scheduler) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.status()
}

// Drain stops the scheduler: new submissions are rejected, queued jobs
// stay queued, and running preemptible jobs are interrupted so they
// flush their checkpoints (their snapshots survive under the data dir;
// a later process can resubmit and resume). Blocks until every running
// engine unwound or ctx expired.
func (s *scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.drained = true
	for j, intr := range s.running {
		if j.preemptible {
			j.preempting = true
			intr.Store(true)
		}
	}
	s.mu.Unlock()

	// Wake the cond.Wait loop when ctx expires.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.running) > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	if len(s.running) > 0 {
		return fmt.Errorf("serve: drain deadline passed with %d jobs still running", len(s.running))
	}
	return nil
}

// marshalResult is the single place results become bytes, so cache
// entries and fresh replies are produced by the same encoder settings.
func marshalResult(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal result: %w", err)
	}
	return b, nil
}
