package serve

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/obs"
	"repro/internal/opt"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the GET /v1/jobs/{id} payload (and each element of
// GET /v1/jobs). Result holds the job's marshaled result verbatim —
// json.RawMessage, so a cache hit replays the original bytes.
type JobStatus struct {
	ID       string `json:"id"`
	Type     string `json:"type"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	Workers  int    `json:"workers"` // granted demand on the worker budget

	// Cached is true when the result came from the content-addressed
	// cache rather than a fresh engine run.
	Cached bool `json:"cached"`
	// Preemptions counts how many times a higher-priority job took the
	// job's workers: each time its engine parked in memory, queued,
	// and later continued where it stopped.
	Preemptions int `json:"preemptions"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// EvalResult is the result payload of an eval job.
type EvalResult struct {
	Graph       fault.GraphReport `json:"graph"`
	Fingerprint string            `json:"fingerprint"`
}

// AnnealResult is the result payload of an anneal job: the designed
// topology (canonical text + fingerprint, so clients can both deploy it
// and cheaply compare runs), its metrics report and the SA statistics.
type AnnealResult struct {
	Graph       fault.GraphReport `json:"graph"`
	Fingerprint string            `json:"fingerprint"`
	GraphText   string            `json:"graphText"`
	Method      string            `json:"method"`
	MPredicted  int               `json:"mPredicted,omitempty"`
	MUsed       int               `json:"mUsed"`
	LowerBound  float64           `json:"lowerBound,omitempty"`
	Anneal      *opt.Result       `json:"anneal,omitempty"`
}

// SweepResult is the result payload of a sweep job.
type SweepResult struct {
	Graph       fault.GraphReport  `json:"graph"`
	Fingerprint string             `json:"fingerprint"`
	Model       string             `json:"model"`
	Trials      int                `json:"trials"`
	Seed        uint64             `json:"seed"`
	Points      []fault.SweepPoint `json:"points"`
}

// job is the server-side record. Mutable fields are guarded by the
// scheduler's lock; the eventLog and doneCh have their own
// synchronization.
type job struct {
	id   string
	seq  uint64 // FIFO tiebreak within a priority level
	spec JobSpec
	key  string // content-address of the result

	// Parsed once at submit; graph (and spec.Graph, its text) is dropped
	// when the job finishes (see release).
	graph *hsgraph.Graph // nil when generated/designed by the job
	model fault.Model

	state       string
	workers     int  // granted demand, 1..budget
	preemptible bool // anneals and sweeps park; evals are short and run through
	preempting  bool // interrupt armed, waiting for the engine to park
	preemptions int
	// intr is the engine's interrupt flag, armed to preempt or drain it
	// and cleared when a parked engine resumes. wake is non-nil while
	// the engine is parked in scheduler.pause: start sends the new run
	// span on it, Drain closes it.
	intr     atomic.Bool
	wake     chan *obs.Span
	runStart time.Time // start of the current run episode

	cached    bool
	submitted time.Time
	started   *time.Time
	finished  *time.Time
	err       error
	result    json.RawMessage

	log *eventLog
	// doneCh closes when the job reaches done or failed (a cache hit
	// gets the shared closedChan).
	doneCh chan struct{}

	// The job's causal trace (span events land in log). root is the
	// "job" span opened at submit and ended when the job finishes;
	// waitSpan/runSpan are the currently open queue.wait / run episode
	// (both guarded by the scheduler lock; runSpan is set before the
	// engine goroutine launches and read by it).
	tracer   *obs.Tracer
	root     *obs.Span
	waitSpan *obs.Span
	runSpan  *obs.Span
	queuedAt time.Time // start of the current queue episode
}

// status snapshots the job for JSON. Caller holds the scheduler lock.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Type:        j.spec.Type,
		State:       j.state,
		Priority:    j.spec.Priority,
		Workers:     j.workers,
		Cached:      j.cached,
		Preemptions: j.preemptions,
		Submitted:   j.submitted,
		Started:     j.started,
		Finished:    j.finished,
		Result:      j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
