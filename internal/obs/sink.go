package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// JSONLSink writes Events as one JSON object per line, each encoded by
// AppendEvent. It is safe for concurrent use (a mutex serialises writes —
// event emission is off the per-move hot path by construction: engines
// sample at intervals).
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte // one encoded line, reused
	err error
}

// NewJSONLSink returns a sink writing to w, with the schema header
// already emitted.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := NewJSONLSinkContinue(w)
	s.Emit(Header())
	return s
}

// NewJSONLSinkContinue returns a sink writing to w without emitting a
// schema header, for appending to an existing stream that already starts
// with one (a resumed run continuing its event log).
func NewJSONLSinkContinue(w io.Writer) *JSONLSink {
	return &JSONLSink{bw: bufio.NewWriter(w)}
}

// Emit appends one event. The first write error is sticky and returned
// from every later call and from Flush.
func (s *JSONLSink) Emit(e Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.buf, s.err = AppendEvent(s.buf[:0], e); s.err != nil {
		return s.err
	}
	_, s.err = s.bw.Write(append(s.buf, '\n'))
	return s.err
}

// Flush drains the buffer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// Close flushes whatever the buffer holds — even after a mid-stream
// write error — and returns the sticky error (or the flush error when
// the stream was clean). Flush refuses to run once the sink is poisoned
// so a partial object is never extended; Close is the terminal call
// where that protection no longer helps: the events buffered *before*
// the failure are intact JSONL lines, and dropping them would turn one
// bad event into silent truncation of the whole tail. An encoding
// failure happens before any bytes reach the buffer (Emit encodes into a
// scratch buffer first), so flushing after it cannot emit a torn line.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ferr := s.bw.Flush()
	if s.err != nil {
		return s.err
	}
	s.err = ferr
	return ferr
}

// ReadJSONL parses a JSONL event stream, skipping blank lines. Unknown
// kinds are returned as-is (the schema contract: consumers tolerate
// growth).
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}
