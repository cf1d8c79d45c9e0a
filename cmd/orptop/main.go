// Command orptop is a live terminal dashboard for a running orpd: it
// polls /metrics (Prometheus text exposition) and the jobs API and
// renders service health — queue depth, worker occupancy, cache hit
// rate, per-endpoint request rates and latency percentiles, queue-wait
// percentiles by priority, and the incremental-evaluation cache
// counters — plus the most recent jobs. With -job it instead renders
// one job's causal span waterfall from its event stream.
//
// Usage:
//
//	orptop -addr http://127.0.0.1:8080              # refresh every 2s
//	orptop -addr http://127.0.0.1:8080 -once        # one snapshot (CI, scripts)
//	orptop -addr http://127.0.0.1:8080 -job j00000003
//
// It speaks only the public HTTP API, so it works against any orpd it
// can reach; nothing is shared with the server process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "orpd base URL")
		interval = flag.Duration("interval", 2*time.Second, "refresh period")
		once     = flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
		jobID    = flag.String("job", "", "render this job's span waterfall instead of the dashboard")
		rows     = flag.Int("rows", 12, "job rows to show")
		state    = flag.String("state", "", "only list jobs in this state (queued|running|done|failed)")
	)
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.ExitIfVersion("orptop", version)
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: orptop [-addr URL] [-interval 2s] [-once] [-job ID] [-state S]")
		os.Exit(2)
	}
	base := strings.TrimRight(*addr, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	if *jobID != "" {
		if err := renderJob(os.Stdout, client, base, *jobID); err != nil {
			fatal(err)
		}
		return
	}

	for {
		var buf strings.Builder
		err := renderDashboard(&buf, client, base, *rows, *state)
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear + home between refreshes
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "orptop: %v\n", err)
			if *once {
				os.Exit(1)
			}
		} else {
			os.Stdout.WriteString(buf.String())
		}
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func scrape(client *http.Client, base string) ([]obs.PromSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParsePrometheus(resp.Body)
}

// renderDashboard writes one full dashboard frame.
func renderDashboard(w io.Writer, client *http.Client, base string, rows int, state string) error {
	samples, err := scrape(client, base)
	if err != nil {
		return err
	}
	q := "/v1/jobs"
	if state != "" {
		q += "?state=" + state
	}
	var jobs []serve.JobStatus
	if err := getJSON(client, base+q, &jobs); err != nil {
		return err
	}

	val := func(name string, labels map[string]string) float64 {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			match := len(s.Labels) == len(labels)
			for k, v := range labels {
				if s.Labels[k] != v {
					match = false
				}
			}
			if match {
				return s.Value
			}
		}
		return 0
	}
	flat := func(name string) float64 { return val(name, nil) }

	fmt.Fprintf(w, "orptop — %s — %s\n\n", base, time.Now().Format("15:04:05"))

	submitted := flat("orpd_jobs_submitted_total")
	hits := flat("orpd_cache_hits_total")
	misses := flat("orpd_cache_misses_total")
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = hits / (hits + misses)
	}
	fmt.Fprintf(w, "jobs      %5.0f submitted   %5.0f done   %4.0f failed   %4.0f evicted\n",
		submitted, flat("orpd_jobs_done_total"), flat("orpd_jobs_failed_total"),
		flat("orpd_jobs_evicted_total"))
	fmt.Fprintf(w, "workers   %5.0f busy        %5.0f queued\n",
		flat("orpd_workers_busy"), flat("orpd_queue_depth"))
	fmt.Fprintf(w, "cache     %5.1f%% hit rate   %5.0f preemptions\n",
		100*hitRate, flat("orpd_preemptions_total"))

	if syncs := flat("orpd_inc_syncs_total"); syncs > 0 {
		fmt.Fprintf(w, "inc       %5.0f syncs       %5.0f rebuilds   %4.0f peek reuses\n",
			syncs, flat("orpd_inc_full_rebuilds_total"), flat("orpd_inc_stored_peek_reuses_total"))
	}

	// RED per endpoint: request counts by class + latency percentiles
	// rebuilt from the scraped histogram buckets.
	fmt.Fprintf(w, "\n%-8s  %7s %5s %5s  %10s %10s %10s\n", "endpoint", "2xx", "4xx", "5xx", "p50", "p95", "p99")
	for _, ep := range []string{"submit", "list", "get", "events"} {
		line := fmt.Sprintf("%-8s  %7.0f %5.0f %5.0f",
			ep,
			val("orpd_http_requests_total", map[string]string{"endpoint": ep, "code": "2xx"}),
			val("orpd_http_requests_total", map[string]string{"endpoint": ep, "code": "4xx"}),
			val("orpd_http_requests_total", map[string]string{"endpoint": ep, "code": "5xx"}))
		if snap, ok := obs.PromHistogram(samples, "orpd_http_request_seconds",
			map[string]string{"endpoint": ep}); ok && snap.Count > 0 {
			line += fmt.Sprintf("  %10s %10s %10s",
				fmtSecs(snap.Quantile(0.50)), fmtSecs(snap.Quantile(0.95)), fmtSecs(snap.Quantile(0.99)))
		}
		fmt.Fprintln(w, line)
	}

	// Queue wait percentiles per priority (labels are client-chosen, so
	// discover them from the scrape).
	prios := map[string]bool{}
	for _, s := range samples {
		if s.Name == "orpd_queue_wait_seconds_count" {
			prios[s.Label("priority")] = true
		}
	}
	if len(prios) > 0 {
		var keys []string
		for p := range prios {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, _ := strconv.Atoi(keys[i])
			b, _ := strconv.Atoi(keys[j])
			return a < b
		})
		fmt.Fprintf(w, "\n%-12s  %7s  %10s %10s %10s\n", "queue wait", "n", "p50", "p95", "p99")
		for _, p := range keys {
			snap, ok := obs.PromHistogram(samples, "orpd_queue_wait_seconds", map[string]string{"priority": p})
			if !ok {
				continue
			}
			fmt.Fprintf(w, "priority %-3s  %7d  %10s %10s %10s\n", p, snap.Count,
				fmtSecs(snap.Quantile(0.50)), fmtSecs(snap.Quantile(0.95)), fmtSecs(snap.Quantile(0.99)))
		}
	}

	// Most recent jobs last, like top's process table.
	fmt.Fprintf(w, "\n%-11s %-7s %-8s %4s %3s %6s %9s\n", "job", "type", "state", "prio", "wrk", "preempt", "runtime")
	start := 0
	if len(jobs) > rows {
		start = len(jobs) - rows
	}
	for _, j := range jobs[start:] {
		fmt.Fprintf(w, "%-11s %-7s %-8s %4d %3d %6d %9s\n",
			j.ID, j.Type, j.State, j.Priority, j.Workers, j.Preemptions, runtimeOf(j))
	}
	if len(jobs) == 0 {
		fmt.Fprintln(w, "(no jobs)")
	}
	return nil
}

func runtimeOf(j serve.JobStatus) string {
	if j.Started == nil {
		return "-"
	}
	end := time.Now()
	if j.Finished != nil {
		end = *j.Finished
	}
	d := end.Sub(*j.Started)
	if d < 0 {
		d = 0
	}
	return d.Round(time.Millisecond).String()
}

func fmtSecs(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

// renderJob prints one job's status and its span waterfall, rebuilt
// from the events stream (replay only — no follow).
func renderJob(w io.Writer, client *http.Client, base, id string) error {
	var st serve.JobStatus
	if err := getJSON(client, base+"/v1/jobs/"+id, &st); err != nil {
		return err
	}
	fmt.Fprintf(w, "job %s  type=%s state=%s priority=%d preemptions=%d\n",
		st.ID, st.Type, st.State, st.Priority, st.Preemptions)
	if st.Error != "" {
		fmt.Fprintf(w, "error: %s\n", st.Error)
	}

	resp, err := client.Get(base + "/v1/jobs/" + id + "/events?follow=0")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	events, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		return err
	}
	var dropped float64
	for _, e := range events {
		if e.Kind == "stream.gap" {
			dropped += e.F["dropped"]
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "note: %0.f events trimmed by the server's ring buffer; the waterfall may be partial\n", dropped)
	}
	roots := obs.BuildSpanTrees(events)
	if len(roots) == 0 {
		fmt.Fprintln(w, "(no spans yet — the job may still be queued)")
		return nil
	}
	return obs.WriteSpanTree(w, roots, 48)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "orptop: %v\n", err)
	os.Exit(1)
}
