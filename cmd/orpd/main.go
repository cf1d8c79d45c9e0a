// Command orpd is the long-running topology-design service: a REST/JSON
// server over the repository's engines (graph evaluation, ORP
// annealing, Monte-Carlo fault sweeps) with a priority job queue, one
// shared worker budget with in-memory preemption (a preempted anneal or
// sweep parks, keeping its memory, and continues where it stopped), and
// a content-addressed result cache.
//
// Usage:
//
//	orpd -addr 127.0.0.1:8080 -workers 8 -store /var/lib/orpd
//
// API (see internal/serve):
//
//	POST /v1/jobs             submit {"type":"eval|anneal|sweep", ...}
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        status + result (GraphReport schema inside)
//	GET  /v1/jobs/{id}/events replay + follow the job's JSONL telemetry
//	GET  /v1/history          persistent run records (with -store)
//	GET  /metrics             Prometheus exposition (orpd_* instruments)
//	GET  /healthz             liveness JSON (version, uptime, workers, store)
//
// With -store DIR every completed job is appended to a durable run
// store (internal/runstore) and the result cache survives restarts: a
// previously-served query is answered byte-identically by a fresh
// process, and `orphist` queries the same directory offline.
//
// On SIGINT/SIGTERM the server drains gracefully: new submissions get
// 503, running and parked anneals and sweeps stop without a snapshot
// (they stay queued; orpd never resumed a job across processes), evals
// and run-store appends in flight finish, in-flight HTTP requests
// finish, then the process exits. A second signal aborts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an OS-assigned port)")
		workers      = flag.Int("workers", 0, "global worker budget shared by all jobs (0 = all cores)")
		cacheSize    = flag.Int("cache-size", 1024, "result cache capacity in entries")
		storeDir     = flag.String("store", "", "persistent run-store directory (empty = no persistence)")
		retention    = flag.Duration("retention", 0, "drop finished job records this long after completion (0 = keep forever; cached results keep their own LRU bound)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	)
	// Accepted so existing command lines keep working; preempted jobs
	// park in memory and orpd writes no checkpoint files.
	flag.String("data-dir", "", "deprecated and ignored: orpd writes no checkpoint files")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.ExitIfVersion("orpd", version)
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: orpd [-addr host:port] [-workers N] [-cache-size N] [-store DIR] [-retention D] [-drain-timeout D]")
		os.Exit(2)
	}
	w, err := cliutil.Workers(*workers)
	if err != nil {
		fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Workers:   w,
		CacheSize: *cacheSize,
		StoreDir:  *storeDir,
		Registry:  obs.NewRegistry(),
		Retention: *retention,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "orpd: serving on http://%s (budget %d workers)\n", ln.Addr(), effectiveWorkers(w))

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "orpd: %v: draining (signal again to abort)\n", s)
		go func() {
			<-sig
			os.Exit(130)
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the scheduler first (engines stop, appends finish), then the
	// HTTP listener (in-flight status/event requests finish).
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "orpd: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	// Close releases the run store's append handle (the drain above
	// already stopped every engine, so the embedded re-drain is a no-op).
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "orpd: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "orpd: drained")
}

func effectiveWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "orpd: %v\n", err)
	os.Exit(1)
}
