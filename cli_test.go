package repro

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runstore"
)

// CLI integration tests: build every command once, then drive the
// binaries end to end the way a user would (solve -> eval -> sim).

var (
	binDir string
	tools  []string // every command under cmd/
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "orp-bins-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	entries, err := os.ReadDir("cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, e := range entries {
		if e.IsDir() {
			tools = append(tools, e.Name())
		}
	}
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n", tool, err)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// seedBetterRecord appends a synthetic eligible record with the given
// h-ASPL into the (n, r) cell — a "prior best" for orphist check to
// regress against.
func seedBetterRecord(t *testing.T, dir string, n, r int, haspl float64) {
	t.Helper()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(&runstore.Record{
		Unix: time.Now().UnixNano(),
		Tool: "orpsolve",
		Kind: "anneal",
		Seed: 99,
		N:    n,
		R:    r,
		M:    n,
		Metrics: runstore.Metrics{
			HASPL: haspl, Diameter: 3, Connected: true,
			TotalPath: 1, ReachablePairs: 1,
		},
	}); err != nil {
		t.Fatal(err)
	}
}

// runTool executes a built binary and returns stdout, stderr.
func runTool(t *testing.T, tool string, stdin []byte, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	if stdin != nil {
		cmd.Stdin = bytes.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", tool, args, err, errb.String())
	}
	return out.String(), errb.String()
}

// TestCLIVersionFlag: every command reports the shared build identity.
func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	for _, tool := range tools {
		out, _ := runTool(t, tool, nil, "-version")
		if !strings.HasPrefix(out, tool+": repro") {
			t.Fatalf("%s -version output %q, want prefix %q", tool, out, tool+": repro")
		}
	}
}

func TestCLISolveEvalPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graphFile := filepath.Join(t.TempDir(), "g.hsg")
	_, stderr := runTool(t, "orpsolve", nil, "-n", "64", "-r", "8", "-iters", "2000", "-o", graphFile)
	if !strings.Contains(stderr, "h-ASPL") {
		t.Fatalf("orpsolve stderr missing stats: %s", stderr)
	}
	out, _ := runTool(t, "orpeval", nil, "-bandwidth", "-phys", graphFile)
	for _, want := range []string{"h-ASPL", "theorem2", "partition cuts", "deployment", "m_opt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("orpeval output missing %q:\n%s", want, out)
		}
	}
}

func TestCLITopoSimPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graphFile := filepath.Join(t.TempDir(), "df.hsg")
	_, stderr := runTool(t, "orptopo", nil, "-kind", "dragonfly", "-a", "4", "-o", graphFile)
	if !strings.Contains(stderr, "dragonfly") {
		t.Fatalf("orptopo stderr: %s", stderr)
	}
	out, _ := runTool(t, "orpsim", nil, "-bench", "MG", "-class", "S", "-ranks", "16", graphFile)
	for _, want := range []string{"simulated time", "Mop/s", "flows"} {
		if !strings.Contains(out, want) {
			t.Fatalf("orpsim output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIStdinPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	// orptopo writes the graph to stdout; orpeval reads "-" from stdin.
	graph, _ := runTool(t, "orptopo", nil, "-kind", "fattree", "-k", "4", "-q")
	out, _ := runTool(t, "orpeval", []byte(graph), "-")
	if !strings.Contains(out, "order (hosts)     16") {
		t.Fatalf("piped eval wrong:\n%s", out)
	}
}

func TestCLIGolfRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	edges := filepath.Join(t.TempDir(), "g.edges")
	_, stderr := runTool(t, "orpgolf", nil, "-n", "16", "-d", "3", "-iters", "3000", "-o", edges)
	if !strings.Contains(stderr, "ASPL") {
		t.Fatalf("orpgolf stderr: %s", stderr)
	}
	_, stderr2 := runTool(t, "orpgolf", nil, "-eval", edges)
	if !strings.Contains(stderr2, "diameter") {
		t.Fatalf("orpgolf -eval stderr: %s", stderr2)
	}
}

func TestCLITraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graph, _ := runTool(t, "orptopo", nil, "-kind", "fattree", "-k", "4", "-q")
	out, _ := runTool(t, "orptraffic", []byte(graph), "-pattern", "transpose", "-rounds", "2", "-")
	if !strings.Contains(out, "transpose") || !strings.Contains(out, "mean=") {
		t.Fatalf("orptraffic output wrong:\n%s", out)
	}
}

func TestCLIFiguresTheory(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	out, _ := runTool(t, "orpfigures", nil, "-fig", "7", "-n", "128", "-r", "12")
	if !strings.Contains(out, "continuous-Moore") {
		t.Fatalf("orpfigures fig 7 output wrong:\n%s", out)
	}
	out2, _ := runTool(t, "orpfigures", nil, "-fig", "6", "-n", "96", "-r", "12", "-iters", "1500")
	if !strings.Contains(out2, "host distribution") {
		t.Fatalf("orpfigures fig 6 output wrong:\n%s", out2)
	}
}

func TestCLIDotOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "g.hsg")
	dotFile := filepath.Join(dir, "g.dot")
	runTool(t, "orptopo", nil, "-kind", "fullmesh", "-m", "4", "-r", "8", "-q", "-o", graphFile)
	runTool(t, "orpeval", nil, "-dot", dotFile, graphFile)
	data, err := os.ReadFile(dotFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "graph hsgraph {") {
		t.Fatalf("bad DOT output: %s", data[:40])
	}
}

func TestCLIMap(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	graphFile := filepath.Join(dir, "g.hsg")
	matrixFile := filepath.Join(dir, "m.traffic")
	runTool(t, "orptopo", nil, "-kind", "fattree", "-k", "4", "-q", "-o", graphFile)
	// Ring traffic over 16 ranks.
	var mb strings.Builder
	mb.WriteString("traffic 16\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&mb, "%d %d 1000\n", i, (i+1)%16)
	}
	if err := os.WriteFile(matrixFile, []byte(mb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr := runTool(t, "orpmap", nil, "-matrix", matrixFile, "-iters", "3000", graphFile)
	if !strings.Contains(stderr, "traffic-weighted hops") {
		t.Fatalf("orpmap stderr missing report: %s", stderr)
	}
	if !strings.Contains(out, "hsgraph 16 20 4") {
		t.Fatalf("orpmap did not emit the remapped graph:\n%.120s", out)
	}
}

func TestCLIEvalJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graph, _ := runTool(t, "orptopo", nil, "-kind", "fattree", "-k", "4", "-q")
	out, _ := runTool(t, "orpeval", []byte(graph), "-json", "-workers", "2", "-")
	var rep struct {
		Order     int     `json:"order"`
		HASPL     float64 `json:"haspl"`
		Connected bool    `json:"connected"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("orpeval -json not parseable: %v\n%s", err, out)
	}
	if rep.Order != 16 || !rep.Connected || rep.HASPL <= 0 {
		t.Fatalf("orpeval -json wrong content: %+v", rep)
	}
}

func TestCLIFaultScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graph, _ := runTool(t, "orptopo", nil, "-kind", "hypercube", "-dims", "5", "-n", "64", "-q")

	// Text mode reports the degradation.
	out, _ := runTool(t, "orpfault", []byte(graph), "-model", "links", "-frac", "0.05", "-seed", "7", "-")
	for _, want := range []string{"failure scenario", "pristine h-ASPL", "stretch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("orpfault output missing %q:\n%s", want, out)
		}
	}

	// JSON mode emits the shared GraphReport schema for both graphs, and
	// the run is deterministic: same seed, same bytes.
	js1, _ := runTool(t, "orpfault", []byte(graph), "-json", "-frac", "0.05", "-seed", "7", "-")
	js2, _ := runTool(t, "orpfault", []byte(graph), "-json", "-frac", "0.05", "-seed", "7", "-")
	if js1 != js2 {
		t.Fatal("orpfault -json not deterministic for a fixed seed")
	}
	var rep struct {
		Pristine struct {
			HASPL float64 `json:"haspl"`
		} `json:"pristine"`
		Degraded struct {
			SurvivingHASPL float64 `json:"survivingHASPL"`
		} `json:"degraded"`
		FailedLinks int `json:"failedLinks"`
	}
	if err := json.Unmarshal([]byte(js1), &rep); err != nil {
		t.Fatalf("orpfault -json not parseable: %v\n%s", err, js1)
	}
	if rep.FailedLinks != 4 || rep.Degraded.SurvivingHASPL < rep.Pristine.HASPL {
		t.Fatalf("orpfault -json wrong content: %+v", rep)
	}
}

func TestCLITelemetryPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()

	// Anneal telemetry: orpsolve -trace-out emits JSONL that orptrace
	// renders as a convergence table.
	annealJSONL := filepath.Join(dir, "anneal.jsonl")
	graphFile := filepath.Join(dir, "g.hsg")
	runTool(t, "orpsolve", nil, "-n", "64", "-r", "6", "-iters", "3000",
		"-trace-out", annealJSONL, "-o", graphFile)
	out, _ := runTool(t, "orptrace", nil, annealJSONL)
	for _, want := range []string{"iter", "temp", "best", "accept", "anneal done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("orptrace anneal summary missing %q:\n%s", want, out)
		}
	}

	// Flow telemetry: orpsim -trace-out writes a chrome://tracing JSON
	// array; orptrace reports latency percentiles and hot links from it.
	traceFile := filepath.Join(dir, "t.json")
	runTool(t, "orpsim", nil, "-bench", "FT", "-class", "S", "-ranks", "16",
		"-trace-out", traceFile, graphFile)
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	out2, _ := runTool(t, "orptrace", nil, traceFile)
	for _, want := range []string{"p50", "p95", "p99", "hot links", "flows"} {
		if !strings.Contains(out2, want) {
			t.Fatalf("orptrace chrome summary missing %q:\n%s", want, out2)
		}
	}

	// Sweep telemetry: orpfault -sweep -trace-out, summarised by orptrace.
	sweepJSONL := filepath.Join(dir, "sweep.jsonl")
	graph, _ := runTool(t, "orptopo", nil, "-kind", "hypercube", "-dims", "5", "-n", "64", "-q")
	runTool(t, "orpfault", []byte(graph), "-sweep", "-trials", "3", "-fracs", "0.02,0.05",
		"-trace-out", sweepJSONL, "-")
	out3, _ := runTool(t, "orptrace", nil, sweepJSONL)
	if !strings.Contains(out3, "sweep: 6 trials over 2 fractions") || !strings.Contains(out3, "sweep done") {
		t.Fatalf("orptrace sweep summary wrong:\n%s", out3)
	}
}

func TestCLIMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	// A long anneal keeps the process alive while we scrape it.
	cmd := exec.Command(filepath.Join(binDir, "orpsolve"),
		"-n", "256", "-r", "10", "-iters", "50000000", "-metrics-addr", "127.0.0.1:0", "-o", os.DevNull)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "http://"); ok {
			addr = strings.TrimSuffix(rest, "/metrics")
			break
		}
	}
	if addr == "" {
		t.Fatalf("orpsolve never announced its metrics address (scan err %v)", sc.Err())
	}
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(b)
		// The anneal gauges appear after the first ReportEvery interval.
		if strings.Contains(body, "anneal_best_energy") {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !strings.Contains(body, "anneal_best_energy") || !strings.Contains(body, "# TYPE anneal_temperature gauge") {
		t.Fatalf("metrics exposition missing anneal gauges:\n%.500s", body)
	}
}

func TestCLIWorkersValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	// Negative -workers must be rejected uniformly, with a usage-style exit.
	graph, _ := runTool(t, "orptopo", nil, "-kind", "fattree", "-k", "4", "-q")
	for _, tc := range []struct {
		tool string
		args []string
	}{
		{"orpsim", []string{"-workers", "-1", "-bench", "EP", "-class", "S", "-ranks", "16", "-"}},
		{"orpfault", []string{"-workers", "-2", "-frac", "0.05", "-"}},
		{"orpsolve", []string{"-workers", "-3", "-n", "32", "-r", "6"}},
	} {
		cmd := exec.Command(filepath.Join(binDir, tc.tool), tc.args...)
		cmd.Stdin = strings.NewReader(graph)
		var errb bytes.Buffer
		cmd.Stderr = &errb
		err := cmd.Run()
		if err == nil {
			t.Fatalf("%s accepted a negative -workers", tc.tool)
		}
		if !strings.Contains(errb.String(), "-workers must be >= 0") {
			t.Fatalf("%s error message wrong: %s", tc.tool, errb.String())
		}
	}
}

// TestCLISolveKillAndResume is the end-to-end crash-recovery contract:
// an orpsolve run SIGKILLed mid-anneal and resumed from its periodic
// checkpoint emits the byte-identical graph the uninterrupted run does.
func TestCLISolveKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	refFile := filepath.Join(dir, "ref.hsg")
	outFile := filepath.Join(dir, "resumed.hsg")
	ckFile := filepath.Join(dir, "run.ckpt")
	args := []string{"-n", "96", "-r", "8", "-iters", "60000", "-seed", "9"}

	// Uninterrupted reference.
	runTool(t, "orpsolve", nil, append(args, "-o", refFile)...)

	// Kill a checkpointing run with SIGKILL (no chance to clean up) as
	// soon as the first periodic snapshot has landed.
	cmd := exec.Command(filepath.Join(binDir, "orpsolve"),
		append(args, "-checkpoint", ckFile, "-checkpoint-every", "500", "-o", outFile)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint file appeared within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	// Resume. (If the run happened to finish before the kill, the resume
	// is a no-op replay from the final snapshot — the contract holds
	// either way.)
	_, stderr := runTool(t, "orpsolve", nil,
		append(args, "-checkpoint", ckFile, "-resume", "-o", outFile)...)
	if !strings.Contains(stderr, "resuming restart 0 from") {
		t.Fatalf("resume did not report the checkpoint:\n%s", stderr)
	}
	ref, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatal("resumed run produced a different graph than the uninterrupted run")
	}
}

// TestCLIFaultSweepInterruptAndResume interrupts a checkpointing sweep
// with SIGINT (the engine saves its trial ledger and exits 130) and
// checks the resumed sweep reproduces the uninterrupted JSON output.
func TestCLIFaultSweepInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graph, _ := runTool(t, "orptopo", nil, "-kind", "hypercube", "-dims", "5", "-n", "64", "-q")
	dir := t.TempDir()
	ledger := filepath.Join(dir, "sweep.ckpt")
	args := []string{"-sweep", "-trials", "10", "-fracs", "0.02,0.05,0.1",
		"-seed", "11", "-json", "-"}

	refOut, _ := runTool(t, "orpfault", []byte(graph), args...)

	// Interrupt after the first completed trial reports progress.
	ckArgs := append([]string{"-checkpoint", ledger, "-progress"}, args...)
	cmd := exec.Command(filepath.Join(binDir, "orpfault"), ckArgs...)
	cmd.Stdin = strings.NewReader(graph)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "trial") {
			cmd.Process.Signal(os.Interrupt)
			break
		}
	}
	io.Copy(io.Discard, stderrPipe)
	werr := cmd.Wait()
	if werr != nil {
		// The interrupted path must exit 130 with a saved ledger.
		ee, ok := werr.(*exec.ExitError)
		if !ok || ee.ExitCode() != 130 {
			t.Fatalf("interrupted sweep exit: %v", werr)
		}
		if _, err := os.Stat(ledger); err != nil {
			t.Fatalf("no ledger after interrupt: %v", err)
		}
	} // else: the sweep outran the signal; the resume is a full replay.

	out, _ := runTool(t, "orpfault", []byte(graph),
		append([]string{"-checkpoint", ledger, "-resume"}, args...)...)
	if out != refOut {
		t.Fatalf("resumed sweep output differs from the uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", out, refOut)
	}
}

// TestCLIRunStoreHistory drives the persistent run history end to end:
// orpsolve and orpfault write records with -store, orphist queries them
// (list, best, show, check), a seeded better record turns check into an
// exit-3 regression, and a torn log tail is skipped with a warning that
// compact clears.
func TestCLIRunStoreHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "runs")
	graphFile := filepath.Join(dir, "g.hsg")

	runTool(t, "orpsolve", nil, "-n", "32", "-r", "5", "-iters", "1500", "-seed", "3",
		"-store", storeDir, "-o", graphFile)
	graph, err := os.ReadFile(graphFile)
	if err != nil {
		t.Fatal(err)
	}
	runTool(t, "orpfault", graph, "-model", "links", "-frac", "0.05", "-seed", "7",
		"-store", storeDir, "-")

	list, _ := runTool(t, "orphist", nil, "-store", storeDir, "list")
	for _, want := range []string{"r00000001", "r00000002", "orpsolve", "orpfault", "anneal", "eval"} {
		if !strings.Contains(list, want) {
			t.Fatalf("orphist list missing %q:\n%s", want, list)
		}
	}

	best, _ := runTool(t, "orphist", nil, "-store", storeDir, "best")
	if !strings.Contains(best, "n=32 r=5") {
		t.Fatalf("orphist best has no leaderboard row:\n%s", best)
	}

	show, _ := runTool(t, "orphist", nil, "-store", storeDir, "show", "r00000001")
	for _, want := range []string{"orpsolve/anneal", "h-ASPL", "fingerprint", "energy trace"} {
		if !strings.Contains(show, want) {
			t.Fatalf("orphist show missing %q:\n%s", want, show)
		}
	}
	resJSON, _ := runTool(t, "orphist", nil, "-store", storeDir, "show", "-result", "r00000001")
	var solved struct {
		Method string  `json:"method"`
		HASPL  float64 `json:"haspl"`
	}
	if err := json.Unmarshal([]byte(resJSON), &solved); err != nil {
		t.Fatalf("show -result is not JSON: %v\n%s", err, resJSON)
	}
	if solved.Method != "annealed" || solved.HASPL <= 0 {
		t.Fatalf("stored result wrong: %+v", solved)
	}

	// The fresh store checks clean (the anneal record is the cell's best
	// or first; either way, no regression).
	out, _ := runTool(t, "orphist", nil, "-store", storeDir, "check", "r00000001")
	if !strings.Contains(out, "PASS") {
		t.Fatalf("orphist check on a fresh store: %s", out)
	}

	// Seed a better record into the cell: now the anneal regresses on it
	// and check must exit 3 (the CI-gate contract).
	seedBetterRecord(t, storeDir, 32, 5, solved.HASPL/2)
	cmd := exec.Command(filepath.Join(binDir, "orphist"), "-store", storeDir, "check", "r00000001")
	var checkOut bytes.Buffer
	cmd.Stdout = &checkOut
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("orphist check on a regression: err %v, want exit 3\n%s", err, checkOut.String())
	}
	if !strings.Contains(checkOut.String(), "REGRESSION") {
		t.Fatalf("orphist check verdict wrong:\n%s", checkOut.String())
	}

	// Tear the log tail (a crash mid-append): queries keep working and
	// warn; compact drops the torn region and clears the warning.
	logPath := filepath.Join(storeDir, "runs.orplog")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr := runTool(t, "orphist", nil, "-store", storeDir, "list")
	if !strings.Contains(stderr, "skipped 1 unreadable region") {
		t.Fatalf("torn tail not warned about: %s", stderr)
	}
	runTool(t, "orphist", nil, "-store", storeDir, "compact")
	_, stderr = runTool(t, "orphist", nil, "-store", storeDir, "list")
	if strings.Contains(stderr, "skipped") {
		t.Fatalf("warning survived compact: %s", stderr)
	}
}

func TestCLIFaultSweepAndRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	graph, _ := runTool(t, "orptopo", nil, "-kind", "hypercube", "-dims", "5", "-n", "64", "-q")
	out, _ := runTool(t, "orpfault", []byte(graph), "-sweep", "-trials", "4", "-fracs", "0,0.1", "-")
	if !strings.Contains(out, "resilience sweep") || !strings.Contains(out, "pristine h-ASPL") {
		t.Fatalf("orpfault -sweep output wrong:\n%s", out)
	}

	dir := t.TempDir()
	svgFile := filepath.Join(dir, "deg.svg")
	out2, _ := runTool(t, "orpfault", []byte(graph),
		"-model", "links", "-frac", "0.08", "-repair", "-svg", svgFile, "-")
	if !strings.Contains(out2, "repaired h-ASPL") {
		t.Fatalf("orpfault -repair output wrong:\n%s", out2)
	}
	svg, err := os.ReadFile(svgFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "stroke-dasharray") {
		t.Fatal("degraded SVG does not highlight failed links")
	}
}
