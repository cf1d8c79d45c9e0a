package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// opTimeout is the longest an op may take before it counts as failed.
const opTimeout = 60 * time.Second

// harness is orpd as a user meets it: serve.New with a run store, its
// Handler on a loopback listener, and an HTTP client limited to
// maxConns connections. All traffic crosses the loopback interface.
type harness struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startHarness(dir string, workers int) (*harness, error) {
	srv, err := serve.New(serve.Config{
		Workers:  workers,
		DataDir:  filepath.Join(dir, "data"),
		StoreDir: filepath.Join(dir, "store"),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for its goroutine and drains the server.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	err := h.hs.Close()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// do sends one request and returns the body of a 2xx reply; with keep
// unset, a 2xx body is read and dropped.
func (h *harness) do(ctx context.Context, method, path string, body []byte, keep bool) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var reply []byte
	if keep || resp.StatusCode/100 != 2 {
		reply, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(reply))
	}
	return reply, nil
}

func (h *harness) get(ctx context.Context, path string, keep bool) ([]byte, error) {
	return h.do(ctx, http.MethodGet, path, nil, keep)
}

// status sends a request whose reply is a JobStatus.
func (h *harness) status(ctx context.Context, method, path string, body []byte) (serve.JobStatus, error) {
	var st serve.JobStatus
	reply, err := h.do(ctx, method, path, body, true)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		return st, fmt.Errorf("%s %s: decode job status: %w", method, path, err)
	}
	return st, nil
}

// exec runs one op end to end: POST the spec; a cache hit comes back
// with its result, anything else is followed on its event stream until
// the job ends and then fetched. With traced set, the op's own spans
// (wait, submit, follow, get — each including its reply's decoding) are
// kept in memory, and so are the event stream's bytes for the per-layer
// analysis; nothing is parsed while the run is timed.
func (h *harness) exec(ctx context.Context, o *op, traced bool) {
	o.sent = time.Now()
	var root, wait *obs.Span
	if traced {
		tr := obs.NewTracer(fmt.Sprintf("%s-%d", o.stream, o.index), o.due,
			func(e obs.Event) { o.client = append(o.client, e) })
		root = tr.Root("client.op")
		root.Backdate(o.due)
		root.SetS("kind", o.kind)
		wait = root.Child("client.wait")
		wait.Backdate(o.due)
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	o.err = h.run(ctx, o, root, wait, traced)
	o.done = time.Now()
	if o.err == nil && o.latency() > opTimeout {
		o.err = fmt.Errorf("op took %v", o.latency())
	}
	root.SetS("job", o.jobID)
	root.Fail(o.err)
}

// run sends the op's requests. wait, the span of the op's wait to be
// sent, ends once the submit span has opened, so the two leave no gap.
func (h *harness) run(ctx context.Context, o *op, root, wait *obs.Span, traced bool) error {
	sp := root.Child("http.submit")
	wait.End()
	st, err := h.status(ctx, http.MethodPost, "/v1/jobs", o.body)
	o.submit = time.Since(o.sent)
	sp.Fail(err)
	if err != nil {
		return err
	}
	o.jobID = st.ID
	if st.State != serve.StateDone {
		sp = root.Child("http.follow")
		o.events, err = h.get(ctx, "/v1/jobs/"+st.ID+"/events", traced)
		sp.Fail(err)
		if err != nil {
			return err
		}
		sp = root.Child("http.get")
		st, err = h.status(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
		sp.Fail(err)
		if err != nil {
			return err
		}
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	o.cached, o.preemptions, o.result = st.Cached, st.Preemptions, st.Result
	return nil
}
