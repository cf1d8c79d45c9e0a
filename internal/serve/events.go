package serve

import (
	"encoding/json"
	"sync"

	"repro/internal/obs"
)

// Serve-specific event kinds, extending the obs schema (which grows by
// design: consumers tolerate unknown kinds).
const (
	// KindJobQueued/Running/Preempted/Done mark job lifecycle
	// transitions. f: priority, workers; done also carries cached (0/1)
	// and failed (0/1), s: optionally "error".
	KindJobQueued    = "job.queued"
	KindJobRunning   = "job.running"
	KindJobPreempted = "job.preempted"
	KindJobDone      = "job.done"
	// KindStreamGap is emitted into a follow stream (never stored in the
	// log itself) when the log's ring buffer overwrote events the reader
	// had not consumed yet. f: dropped — how many events are gone. The
	// stream stays valid JSONL and keeps following; only the marked
	// window is missing. Part of the schema-v2 follow contract.
	KindStreamGap = "stream.gap"
)

// defaultLogCap bounds one job's in-memory event history. Big enough for
// any realistic job (tens of thousands of interval samples); a job that
// outgrows it keeps only the most recent window, and followers that fall
// behind the window see a stream.gap marker instead of stale memory
// growth or a stalled scheduler.
const defaultLogCap = 16384

// eventLog is one job's telemetry stream: a ring-buffered JSONL event
// sequence with absolute indexing plus change notification for
// followers. The first event is the versioned obs header; the last is
// always job.done, after which the log is closed.
//
// Events are kept as their encoded JSONL lines: Append encodes each one
// once, with obs.AppendEvent, and every reader replays those bytes. A
// finished job's record thus holds a few hundred bytes per event rather
// than two maps, and every replay of it is the same bytes. An event
// that cannot be encoded (a NaN or ±Inf value) is dropped at Append, so
// the stream stays valid JSONL and still ends at job.done.
//
// Appends come from the scheduler, the job's span tracer and engine
// observers (anneal samples, sweep trials) — any goroutine. Appends
// never block on readers: a reader that falls more than the buffer
// capacity behind simply finds its next index trimmed and reports the
// gap (see ReadFrom), so a dead client can never stall an engine.
type eventLog struct {
	mu      sync.Mutex
	cap     int
	base    int      // absolute index of lines[0]
	lines   [][]byte // encoded events, newline included; never mutated
	closed  bool
	changed chan struct{} // closed and replaced on every append/close
}

// headerLine is the encoded obs.Header(): the same for every job of the
// process, so every log shares one copy.
var headerLine = sync.OnceValue(func() []byte {
	line, err := encodeLine(obs.Header())
	if err != nil {
		panic(err) // the header holds only finite numbers
	}
	return line
})

// closedChan is the change channel of every closed log: no append can
// follow the final event, so a closed log needs no fresh channel.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// encodeLine encodes e as one JSONL line in a slice of its own size.
func encodeLine(e obs.Event) ([]byte, error) {
	var buf [1024]byte
	b, err := obs.AppendEvent(buf[:0], e)
	if err != nil {
		return nil, err
	}
	line := make([]byte, len(b)+1)
	copy(line, b)
	line[len(b)] = '\n'
	return line, nil
}

func newEventLog() *eventLog { return newEventLogCap(defaultLogCap) }

func newEventLogCap(capacity int) *eventLog {
	if capacity < 2 {
		capacity = 2 // room for the header and at least one live event
	}
	// A cache hit logs five events: the header, three spans and job.done.
	l := &eventLog{cap: capacity, lines: make([][]byte, 1, 5), changed: make(chan struct{})}
	l.lines[0] = headerLine()
	return l
}

// Append records e, trimming the oldest events past the ring capacity,
// and wakes followers. It encodes e before taking the lock.
func (l *eventLog) Append(e obs.Event) {
	line, err := encodeLine(e)
	if err != nil {
		return // unencodable: dropped, see eventLog
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.appendLocked(line)
	l.bumpLocked()
}

func (l *eventLog) appendLocked(line []byte) {
	l.lines = append(l.lines, line)
	if len(l.lines) > l.cap {
		trim := len(l.lines) - l.cap
		l.base += trim
		n := copy(l.lines, l.lines[trim:])
		clear(l.lines[n:]) // release the trimmed lines
		l.lines = l.lines[:n]
	}
}

// bumpLocked signals waiting followers by closing the current change
// channel and installing a fresh one. A follower always waits on the
// channel it got from ReadFrom, so a signal between its read and its
// wait is never lost (the channel it holds is already closed).
func (l *eventLog) bumpLocked() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// Close appends the final event and ends the stream: ReadFrom reports
// closed once the reader has drained past the final event.
func (l *eventLog) Close(final obs.Event) {
	line, err := encodeLine(final)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if err == nil {
		l.appendLocked(line)
	}
	l.closed = true
	close(l.changed)
	l.changed = closedChan
}

// ReadFrom returns the buffered lines at absolute index >= from. The
// lines are shared with the log and must not be modified.
// dropped counts events that were trimmed before the reader got to them
// (0 for a healthy reader); next is the absolute index to resume from;
// closed reports that the log has its final event (the stream ends once
// the reader has consumed up to next == total); changed is closed on the
// next append or close, so a follower can wait without polling.
func (l *eventLog) ReadFrom(from int) (batch [][]byte, next int, dropped int, closed bool, changed <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		dropped = l.base - from
		from = l.base
	}
	if off := from - l.base; off < len(l.lines) {
		batch = append([][]byte(nil), l.lines[off:]...)
	}
	return batch, from + len(batch), dropped, l.closed, l.changed
}

// Snapshot decodes the events still buffered (the full history for any
// job within the ring capacity).
func (l *eventLog) Snapshot() []obs.Event {
	l.mu.Lock()
	lines := append([][]byte(nil), l.lines...)
	l.mu.Unlock()
	out := make([]obs.Event, 0, len(lines))
	for _, line := range lines {
		var e obs.Event
		if json.Unmarshal(line, &e) == nil { // every line is AppendEvent's JSON
			out = append(out, e)
		}
	}
	return out
}

// Len returns base+len: the total number of events ever appended.
func (l *eventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + len(l.lines)
}
