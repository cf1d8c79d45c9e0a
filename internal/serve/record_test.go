package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.HeapAlloc)
	}
	return best
}

// TestFinishedRecordSize bounds what orpd keeps per finished job. Every
// record stays queryable (default retention keeps them all), so a
// server that answers tens of thousands of cached queries holds that
// many records; each must cost its status, its encoded events and a
// share of the cached result bytes, not its parsed inline graph, its
// graph text or its tracer's span maps. Measured at the paper's n=1024,
// r=15 design point, where an inline graph parses to ~80 KB.
func TestFinishedRecordSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const maxPerRecord = 2560 // bytes
	s := testServer(t, Config{Workers: 1})
	text := graphText(t, 1024, 195, 15, 3)
	for _, tc := range []struct {
		name  string
		spec  JobSpec
		count int
	}{
		{"generated", JobSpec{Type: TypeEval, N: 1024, M: 195, R: 15, GraphSeed: 1}, 2000},
		{"inline", JobSpec{Type: TypeEval, Graph: text}, 200},
	} {
		submitDone(t, s, tc.spec) // the miss that fills the cache
		before := liveHeap()
		for i := 0; i < tc.count; i++ {
			spec := tc.spec
			// Over HTTP every request decodes its own copy of the text.
			spec.Graph = strings.Clone(spec.Graph)
			st, err := s.Submit(spec)
			if err != nil || !st.Cached {
				t.Fatalf("%s submit %d: cached=%v err=%v", tc.name, i, st.Cached, err)
			}
		}
		per := float64(int64(liveHeap())-int64(before)) / float64(tc.count)
		t.Logf("%s: %.0f B retained per finished record", tc.name, per)
		if per > maxPerRecord {
			t.Errorf("%s: %.0f B retained per finished record, want <= %d", tc.name, per, maxPerRecord)
		}
	}
	runtime.KeepAlive(s)
}

// marshalLines is the reference JSONL encoding of events: json.Marshal
// plus a newline per event.
func marshalLines(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var out []byte
	for _, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	client := &http.Client{Timeout: time.Minute}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEventReplayBytes pins the byte contract of /events: a job followed
// live, the same job replayed after it finished, and a log past its ring
// cap (with its stream.gap marker) each stream exactly json.Marshal(e)
// plus a newline per event.
func TestEventReplayBytes(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the only worker so the follower below connects while the
	// traced job still waits in the queue.
	blocker, err := s.Submit(JobSpec{Type: TypeAnneal, Graph: graphText(t, 48, 16, 6, 5), Iterations: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(JobSpec{Type: TypeAnneal, Graph: graphText(t, 48, 16, 6, 3), Iterations: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	live := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	waitDone(t, s, blocker.ID)
	replay := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if !bytes.Equal(live, replay) {
		t.Fatalf("replay after the job finished differs from the live stream:\n%s\nvs\n%s", replay, live)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds[obs.KindHeader] != 1 || kinds[obs.KindAnnealSample] == 0 || kinds[obs.KindSpan] == 0 || kinds[KindJobDone] != 1 {
		t.Fatalf("stream lacks header, samples, spans or job.done: %v", kinds)
	}
	// Decoding is exact for finite floats, so the stream is the reference
	// encoding exactly when re-marshaling its decoded events reproduces it.
	if want := marshalLines(t, events); !bytes.Equal(live, want) {
		t.Fatalf("stream is not json.Marshal's encoding:\n%s\nwant\n%s", live, want)
	}
	if want := marshalLines(t, []obs.Event{obs.Header()}); !bytes.HasPrefix(live, want) {
		t.Fatalf("stream does not open with the encoded header %q", want)
	}

	// A closed log past its ring cap: the gap marker, then the window.
	var appended []obs.Event
	l := newEventLogCap(8)
	for i := 0; i < 100; i++ {
		e := obs.Event{T: float64(i) * 1e-7, Kind: "x<&>", F: map[string]float64{"v": float64(i) * 1e20, "neg": -0.5}}
		if i%3 == 0 {
			e.S = map[string]string{"msg": "ü \"q\"", "empty": ""}
		}
		appended = append(appended, e)
		l.Append(e)
	}
	final := obs.Event{Kind: KindJobDone, F: map[string]float64{"cached": 0, "failed": 0, "preemptions": 0}}
	l.Close(final)
	s.sched.mu.Lock()
	s.sched.jobs["jgap"] = &job{id: "jgap", log: l}
	s.sched.mu.Unlock()
	got := getBody(t, ts.URL+"/v1/jobs/jgap/events")
	// header + 100 appends + final = 102 events; the window keeps 8.
	gap := obs.Event{Kind: KindStreamGap, F: map[string]float64{"dropped": 102 - 8}}
	want := marshalLines(t, append(append([]obs.Event{gap}, appended[100-7:]...), final))
	if !bytes.Equal(got, want) {
		t.Fatalf("overrun stream:\n%s\nwant\n%s", got, want)
	}
}

// TestUnencodableEventDropped pins what the log does with an event that
// JSON cannot represent: it is dropped at append, and the stream stays
// valid JSONL through to job.done.
func TestUnencodableEventDropped(t *testing.T) {
	l := newEventLogCap(16)
	l.Append(obs.Event{Kind: "ok", F: map[string]float64{"i": 1}})
	l.Append(obs.Event{Kind: "bad", F: map[string]float64{"x": math.NaN()}})
	l.Append(obs.Event{Kind: "ok", F: map[string]float64{"i": 2}})
	l.Close(obs.Event{Kind: KindJobDone})
	var kinds []string
	for _, e := range l.Snapshot() {
		kinds = append(kinds, e.Kind)
	}
	if got := strings.Join(kinds, ","); got != obs.KindHeader+",ok,ok,"+KindJobDone {
		t.Fatalf("log holds %s", got)
	}
}
