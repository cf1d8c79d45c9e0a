package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
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
// strictly-lower-priority anneals and sweeps to make room (elastic
// scheduling). A preempted engine parks: it stops at its interrupt,
// hands its workers back and waits in memory, queued, until capacity
// frees up; then it continues where it stopped, bit-identically, on
// the goroutine it never left (see pause).
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
	cond      *sync.Cond // broadcast when an engine goroutine exits (drain waits on it)
	budget    int
	free      int
	seq       uint64
	jobs      map[string]*job
	order     []*job // submission order, for listing
	queue     jobHeap
	running   map[*job]struct{} // jobs holding workers
	engines   int               // live engine goroutines: running, parked or appending
	cache     *resultCache
	store     *runstore.Store // nil when no -store dir is configured
	met       *metrics
	retention time.Duration // 0 = keep finished jobs forever
	drained   bool

	clock func() time.Time // test hook; time.Now in production
	// appendHook, when a test sets it, runs in the job's goroutine just
	// before its run-store append, without the scheduler lock.
	appendHook func(*job)
}

func newScheduler(budget int, cache *resultCache, store *runstore.Store, met *metrics, retention time.Duration) *scheduler {
	if budget < 1 {
		budget = runtime.GOMAXPROCS(0)
	}
	s := &scheduler{
		budget:    budget,
		free:      budget,
		jobs:      make(map[string]*job),
		running:   make(map[*job]struct{}),
		cache:     cache,
		store:     store,
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
	}
	j.preemptible = spec.Type != TypeEval
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
		j.doneCh = closedChan
		j.release()
		return j.status(), nil
	}
	s.met.misses.Inc()

	j.doneCh = make(chan struct{})
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

// start transitions j to running: a parked engine continues in memory,
// anything else gets a new engine goroutine. Caller holds s.mu.
func (s *scheduler) start(j *job) {
	s.free -= j.workers
	j.state = StateRunning
	j.preempting = false
	now := s.clock()
	if j.started == nil {
		j.started = &now
	}
	j.runStart = time.Now()
	s.running[j] = struct{}{}
	s.met.workersBusy.Set(float64(s.budget - s.free))

	// Close this queue-wait episode: span + per-priority histogram.
	j.waitSpan.End()
	j.waitSpan = nil
	s.met.queueWait(j.spec.Priority).Observe(now.Sub(j.queuedAt).Seconds())

	// Open the run episode; the engine goroutine owns it until it ends
	// it (done, failed or preempted).
	resume := j.wake != nil
	j.runSpan = j.root.Child("run")
	j.runSpan.SetF("episode", float64(j.preemptions))
	j.runSpan.SetF("workers", float64(j.workers))
	j.runSpan.SetF("resume", b2f(resume))

	j.log.Append(obs.Event{Kind: KindJobRunning, F: map[string]float64{
		"priority": float64(j.spec.Priority), "workers": float64(j.workers),
		"resume": b2f(resume),
	}})
	if resume {
		// The parked engine waits in pause: clear its interrupt, then
		// hand it the new run span (the channel has room for it).
		j.intr.Store(false)
		j.wake <- j.runSpan
		j.wake = nil
		return
	}
	s.engines++
	go s.run(j)
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
		if j.preemptible && j.spec.Priority < top.spec.Priority {
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
		v.intr.Store(true)
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

// pause is the engines' pause hook (opt.Options.Pause and
// fault.SweepOptions.Pause): it runs in j's engine goroutine once the
// engine stopped at its interrupt. It ends the run episode, hands j's
// workers back and re-queues j, then blocks until start resumes j in
// place, answering with the new run episode's span, or Drain stops it.
// While it waits the job keeps its memory: graphs, caches, evaluators.
func (s *scheduler) pause(j *job) (*obs.Span, bool) {
	s.mu.Lock()
	s.releaseLocked(j)
	j.state = StateQueued
	j.preempting = false
	j.preemptions++
	j.runSpan.SetS("outcome", "preempted")
	j.runSpan.End()
	j.runSpan = nil
	j.log.Append(obs.Event{T: time.Since(j.runStart).Seconds(), Kind: KindJobPreempted, F: map[string]float64{
		"preemptions": float64(j.preemptions),
	}})
	s.enqueueLocked(j)
	if s.drained {
		s.mu.Unlock()
		return nil, false
	}
	wake := make(chan *obs.Span, 1)
	j.wake = wake
	s.schedule()
	s.mu.Unlock()
	sp, resume := <-wake // closed by Drain: stop
	return sp, resume
}

// releaseLocked hands j's workers back to the budget. Caller holds s.mu.
func (s *scheduler) releaseLocked(j *job) {
	delete(s.running, j)
	s.free += j.workers
	s.met.workersBusy.Set(float64(s.budget - s.free))
}

// run is j's engine goroutine. It runs the engine off the scheduler
// lock (parking in pause when preempted), hands the workers back and
// schedules, appends a successful run to the store, still off the lock,
// and only then marks j done: a job a client sees done is in the store.
func (s *scheduler) run(j *job) {
	result, err := s.execute(j)

	s.mu.Lock()
	if errors.Is(err, ckpt.ErrInterrupted) && j.state == StateQueued {
		// Drain answered pause with stop: j is already re-queued and
		// its workers are back.
		s.exitLocked()
		s.mu.Unlock()
		return
	}
	elapsed := time.Since(j.runStart).Seconds()
	s.releaseLocked(j)
	s.schedule()
	if err == nil {
		s.mu.Unlock()
		s.appendRun(j, result)
		s.mu.Lock()
	}
	s.finishLocked(j, result, err, elapsed)
	s.exitLocked()
	s.mu.Unlock()
}

// exitLocked counts an engine goroutine out. Caller holds s.mu.
func (s *scheduler) exitLocked() {
	s.engines--
	s.cond.Broadcast()
}

// finishLocked marks j done (caching its result) or failed, closes its
// trace and event log and compacts the record. Caller holds s.mu.
func (s *scheduler) finishLocked(j *job, result json.RawMessage, err error, elapsed float64) {
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
	j.release()
}

// release drops what a finished job no longer needs: the parsed inline
// graph and its text, and the tracer and spans, whose events the log
// already holds encoded. The record stays queryable: it keeps its
// status, its result bytes (shared with the result cache) and its
// encoded event lines. Caller holds s.mu.
func (j *job) release() {
	j.graph = nil
	j.spec.Graph = ""
	j.tracer, j.root, j.waitSpan, j.runSpan = nil, nil, nil, nil
}

// appendRun appends a successful run to the persistent run store, in
// the job's goroutine and without the scheduler lock, under a
// store.append span inside the job's last run episode. Failed jobs and
// cache hits are not history. The record's phases are the job's trace
// so far: the run episode and the job span are still open, so they are
// read as of now (obs.Span.Peek). A nil store skips everything,
// including building the record.
func (s *scheduler) appendRun(j *job, result json.RawMessage) {
	if s.store == nil {
		return
	}
	sp := j.runSpan.Child("store.append")
	if s.appendHook != nil {
		s.appendHook(j)
	}
	finished := s.clock()
	err := s.store.AppendRun(func() runstore.Record {
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
		_ = json.Unmarshal(result, &probe)
		events := append(j.log.Snapshot(), j.root.Peek(), j.runSpan.Peek())
		rec := runstore.Record{
			Unix:        finished.UnixNano(),
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
			Phases:      runstore.PhasesFromDurations(obs.PhaseDurations(events)),
			WallSeconds: finished.Sub(j.submitted).Seconds(),
			Result:      result,
		}
		if probe.Anneal != nil {
			rec.EnergyTrace = probe.Anneal.EnergyTrace
			rec.EnergyTraceStride = probe.Anneal.EnergyTraceStride
		}
		return rec
	})
	sp.Fail(err)
	if err != nil {
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
// stay queued, and every engine stops without a snapshot: running
// anneals and sweeps are interrupted and their pause hook answers stop,
// parked ones are answered stop where they wait. Both end re-queued
// (orpd never resumed a job across processes; a resubmission reruns
// it). Evals and jobs past their engine finish, store append included.
// Blocks until every engine goroutine exited or ctx expired.
func (s *scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.drained = true
	for j := range s.running {
		if j.preemptible {
			j.preempting = true
			j.intr.Store(true)
		}
	}
	for _, j := range s.queue {
		if j.wake != nil {
			close(j.wake)
			j.wake = nil
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
	for s.engines > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	if s.engines > 0 {
		return fmt.Errorf("serve: drain deadline passed with %d engines still running", s.engines)
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
