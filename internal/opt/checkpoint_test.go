package opt

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// ckptBaseOptions is the shared configuration for the differential
// resume tests: ReportEvery=1 so an interrupt can be armed at any exact
// iteration, tracing on with a small cap so decimation is exercised.
func ckptBaseOptions() Options {
	return Options{
		Iterations: 800,
		// TwoNeighborSwing is the move set most sensitive to restored
		// state: it indexes the edge list, scans adjacency lists from a
		// random offset and moves the first host on a switch, so any
		// ordering the snapshot failed to preserve diverges the stream.
		Moves:          TwoNeighborSwing,
		Seed:           77,
		ReportEvery:    1,
		TraceEnergy:    true,
		energyTraceMax: 64,
	}
}

func graphBytes(t *testing.T, g *hsgraph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hsgraph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireIdentical asserts the headline invariant: same serialized best
// graph, same Result down to the last field (energy trace included).
// Result.Eval is diagnostics, not part of the determinism contract — the
// counters depend on the evaluation path and restart on resume — so it is
// zeroed before comparing.
func requireIdentical(t *testing.T, wantG, gotG *hsgraph.Graph, wantRes, gotRes Result) {
	t.Helper()
	if !bytes.Equal(graphBytes(t, wantG), graphBytes(t, gotG)) {
		t.Fatal("best graphs differ")
	}
	wantRes.Eval = EvalStats{}
	gotRes.Eval = EvalStats{}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("results differ:\nwant %+v\ngot  %+v", wantRes, gotRes)
	}
}

// TestResumeDeterminismAfterInterrupt is the issue's headline test: a run
// interrupted at an arbitrary iteration and resumed from its snapshot is
// bit-identical to the run that was never interrupted — best graph,
// Result, energy trace — including when the resumed half runs with a
// different evaluator worker count.
func TestResumeDeterminismAfterInterrupt(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	wantG, wantRes, err := Anneal(start, ckptBaseOptions())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		killAt        int // iteration at which the interrupt fires
		killWorkers   int // worker count of the interrupted half
		resumeWorkers int // worker count of the resumed half
	}{
		{1, 1, 1},   // immediately after the first iteration
		{137, 1, 3}, // arbitrary point, serial -> parallel
		{517, 2, 1}, // arbitrary point, parallel -> serial
		{799, 3, 2}, // one iteration before the end
		{800, 1, 1}, // resuming a completed run replays nothing
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "anneal.ckpt")

		var stop atomic.Bool
		o := ckptBaseOptions()
		o.CheckpointPath = path
		o.CheckpointEvery = 100 // interrupt points deliberately off-cycle
		o.Interrupt = &stop
		o.Workers = tc.killWorkers
		o.Observer = ObserverFunc(func(s AnnealSample) {
			if s.Iter == tc.killAt {
				stop.Store(true)
			}
		})
		_, partial, err := Anneal(start, o)
		if tc.killAt < o.Iterations {
			if !errors.Is(err, ckpt.ErrInterrupted) {
				t.Fatalf("killAt=%d: want ErrInterrupted, got %v", tc.killAt, err)
			}
			if partial.Iterations != tc.killAt {
				t.Fatalf("killAt=%d: partial result reports %d iterations", tc.killAt, partial.Iterations)
			}
		} else if err != nil {
			t.Fatalf("killAt=%d: %v", tc.killAt, err)
		}

		ro := ckptBaseOptions()
		ro.CheckpointPath = path
		ro.Resume = true
		ro.Workers = tc.resumeWorkers
		gotG, gotRes, err := Anneal(start, ro)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", tc.killAt, err)
		}
		requireIdentical(t, wantG, gotG, wantRes, gotRes)

		// Resuming the now-completed run again must reproduce it exactly,
		// not advance anything.
		againG, againRes, err := Anneal(start, ro)
		if err != nil {
			t.Fatalf("killAt=%d: second resume: %v", tc.killAt, err)
		}
		requireIdentical(t, wantG, againG, wantRes, againRes)
	}
}

// TestCheckpointingDoesNotPerturbRun: enabling snapshots must not change
// the RNG stream or any output — checkpointing is observation, not
// intervention.
func TestCheckpointingDoesNotPerturbRun(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	wantG, wantRes, err := Anneal(start, ckptBaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := ckptBaseOptions()
	o.CheckpointPath = filepath.Join(t.TempDir(), "anneal.ckpt")
	o.CheckpointEvery = 64
	gotG, gotRes, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
}

// TestResumeFromPeriodicSnapshot simulates a SIGKILL: the process dies
// with only a mid-run periodic snapshot on disk (no interrupt-triggered
// final write). Resuming from that older snapshot must still reproduce
// the uninterrupted run exactly, replaying the lost iterations.
func TestResumeFromPeriodicSnapshot(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 9)
	dir := t.TempDir()
	livePath := filepath.Join(dir, "anneal.ckpt")
	killPath := filepath.Join(dir, "killed.ckpt")

	o := ckptBaseOptions()
	o.CheckpointPath = livePath
	o.CheckpointEvery = 128
	o.Observer = ObserverFunc(func(s AnnealSample) {
		if s.Iter == 512 {
			// Freeze whatever snapshot a SIGKILL at this instant would
			// leave behind: the most recent completed periodic write.
			data, err := os.ReadFile(livePath)
			if err != nil {
				t.Errorf("reading live checkpoint: %v", err)
				return
			}
			if err := os.WriteFile(killPath, data, 0o644); err != nil {
				t.Errorf("writing kill copy: %v", err)
			}
		}
	})
	wantG, wantRes, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}

	info, err := ReadCheckpointInfo(killPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Iter <= 0 || info.Iter >= 512 || info.Iter%128 != 0 {
		t.Fatalf("kill copy holds iteration %d, want a periodic snapshot before 512", info.Iter)
	}

	ro := ckptBaseOptions()
	ro.CheckpointPath = killPath
	ro.Resume = true
	gotG, gotRes, err := Anneal(start, ro)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
}

// interruptObserver arms the shared interrupt flag once any restart
// reaches the trigger iteration. Safe for concurrent use.
type interruptObserver struct {
	stop *atomic.Bool
	at   int
}

func (o *interruptObserver) ObserveAnneal(s AnnealSample) {
	if s.Iter >= o.at {
		o.stop.Store(true)
	}
}

// TestParallelAnnealResume: interrupt a multi-restart run — each restart
// stops wherever it happens to be, a deliberately nondeterministic kill
// point — and resume. The final winner must be bit-identical to the
// uninterrupted run regardless of where each restart was cut.
func TestParallelAnnealResume(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 13)
	const restarts = 3
	base := ckptBaseOptions()
	base.Iterations = 600

	wantG, wantRes, err := ParallelAnneal(start, base, restarts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	var stop atomic.Bool
	o := base
	o.CheckpointPath = path
	o.CheckpointEvery = 100
	o.Interrupt = &stop
	o.Observer = &interruptObserver{stop: &stop, at: 150}
	if _, _, err := ParallelAnneal(start, o, restarts); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	for i := 0; i < restarts; i++ {
		if _, err := os.Stat(RestartCheckpointPath(path, restarts, i)); err != nil {
			t.Fatalf("restart %d left no snapshot: %v", i, err)
		}
	}

	ro := base
	ro.CheckpointPath = path
	ro.Resume = true
	ro.Workers = 1
	gotG, gotRes, err := ParallelAnneal(start, ro, restarts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
}

// writeTestCheckpoint produces a snapshot file by interrupting a short
// run, returning the path.
func writeTestCheckpoint(t *testing.T, start *hsgraph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "anneal.ckpt")
	var stop atomic.Bool
	o := ckptBaseOptions()
	o.CheckpointPath = path
	o.Interrupt = &stop
	o.Observer = ObserverFunc(func(s AnnealSample) {
		if s.Iter == 50 {
			stop.Store(true)
		}
	})
	if _, _, err := Anneal(start, o); !errors.Is(err, ckpt.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	return path
}

// TestResumeRejectsMismatchedOptions: a resume whose explicit options
// disagree with the snapshot's stream-defining parameters must error and
// name the offending field — silently diverging would void the
// determinism contract.
func TestResumeRejectsMismatchedOptions(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	path := writeTestCheckpoint(t, start)

	cases := []struct {
		field  string
		mutate func(*Options)
	}{
		{"Seed", func(o *Options) { o.Seed++ }},
		{"Iterations", func(o *Options) { o.Iterations = 9999 }},
		{"Moves", func(o *Options) { o.Moves = SwingOnly }},
		{"Schedule", func(o *Options) { o.Schedule = Linear }},
		{"ReportEvery", func(o *Options) { o.ReportEvery = 7 }},
		{"TraceEnergy", func(o *Options) { o.TraceEnergy = false }},
		{"energyTraceMax", func(o *Options) { o.energyTraceMax = 9 }},
		{"FinalTemp", func(o *Options) { o.FinalTemp = 12345.5 }},
	}
	for _, tc := range cases {
		o := ckptBaseOptions()
		o.CheckpointPath = path
		o.Resume = true
		tc.mutate(&o)
		_, _, err := Anneal(start, o)
		if err == nil {
			t.Fatalf("%s mismatch was accepted", tc.field)
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("%s mismatch error does not name the field: %v", tc.field, err)
		}
	}

	// Zero-valued fields mean "take the stored value": resuming with a
	// minimal option set must work. Enums and booleans have no unset
	// sentinel (their zero values are meaningful) and must be passed.
	minimal := Options{
		Seed:        77,
		Moves:       TwoNeighborSwing,
		TraceEnergy: true,
		Resume:      true,
	}
	minimal.CheckpointPath = path
	if _, _, err := Anneal(start, minimal); err != nil {
		t.Fatalf("minimal resume options rejected: %v", err)
	}
}

// TestResumeMissingFileStartsFresh: Resume with no snapshot on disk is a
// fresh run, so kill/resume wrapper scripts are idempotent.
func TestResumeMissingFileStartsFresh(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	wantG, wantRes, err := Anneal(start, ckptBaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := ckptBaseOptions()
	o.CheckpointPath = filepath.Join(t.TempDir(), "never-written.ckpt")
	o.Resume = true
	gotG, gotRes, err := Anneal(start, o)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, wantG, gotG, wantRes, gotRes)
}

// TestResumeRejectsTamperedGraph: a snapshot whose graph bytes were
// altered (but re-sealed with a valid CRC) must be rejected by the
// energy cross-check or graph validation — a corrupt graph must never
// silently seed a resumed run.
func TestResumeRejectsTamperedGraph(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	path := writeTestCheckpoint(t, start)

	kind, payload, err := ckpt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The payload ends inside the best graph's state blob (the final
	// field). Corrupt its last byte and re-seal with a valid CRC: the
	// envelope passes, so only the graph-level validation stands between
	// the corruption and the resumed run.
	payload[len(payload)-1] ^= 0x40
	if err := ckpt.WriteFile(path, kind, payload); err != nil {
		t.Fatal(err)
	}

	o := ckptBaseOptions()
	o.CheckpointPath = path
	o.Resume = true
	if _, _, err := Anneal(start, o); err == nil {
		t.Fatal("resume accepted a snapshot with a tampered graph")
	}
}

// TestReadCheckpointInfo: the cheap metadata reader reports where the
// run stood.
func TestReadCheckpointInfo(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	path := writeTestCheckpoint(t, start)
	info, err := ReadCheckpointInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Iter != 50 || info.Iterations != 800 || info.Seed != 77 || info.Restart != 0 {
		t.Fatalf("unexpected info: %+v", info)
	}
	if info.BestEnergy <= 0 {
		t.Fatalf("implausible best energy %d", info.BestEnergy)
	}
}

// TestAnnealRejectsInvalidOptions is the regression suite for the
// validation bugs: a negative FinalTemp used to slip past the
// FinalTemp > InitialTemp check and feed math.Pow a negative ratio,
// silently turning the cooling factor into NaN (and the anneal into a
// hill-climb); negative Iterations silently ran zero iterations.
func TestAnnealRejectsInvalidOptions(t *testing.T) {
	start := randomGraph(t, 48, 12, 8, 5)
	cases := []struct {
		name string
		o    Options
	}{
		{"negative FinalTemp", Options{FinalTemp: -1}},
		{"negative InitialTemp", Options{InitialTemp: -5}},
		{"NaN InitialTemp", Options{InitialTemp: math.NaN()}},
		{"NaN FinalTemp", Options{FinalTemp: math.NaN()}},
		{"infinite FinalTemp", Options{FinalTemp: math.Inf(1)}},
		{"negative Iterations", Options{Iterations: -3}},
		{"negative CheckpointEvery", Options{CheckpointEvery: -2}},
		{"unknown move set", Options{Moves: MoveSet(99)}},
		{"unknown schedule", Options{Schedule: Schedule(99)}},
	}
	for _, tc := range cases {
		if _, _, err := Anneal(start, tc.o); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The valid zero-value configuration still works.
	if _, _, err := Anneal(start, Options{Iterations: 10}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// FuzzDecodeAnnealSnapshot: arbitrary payload bytes must either decode
// into a structurally plausible snapshot or error — never panic, never
// yield values that violate the decoder's own invariants.
func FuzzDecodeAnnealSnapshot(f *testing.F) {
	start, err := hsgraph.RandomConnected(24, 6, 8, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	o := Options{Iterations: 20, Seed: 3, ReportEvery: 1, TraceEnergy: true,
		CheckpointPath: path, CheckpointEvery: 10}
	if _, _, err := Anneal(start, o); err != nil {
		f.Fatal(err)
	}
	_, payload, err := ckpt.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeAnnealSnapshot(data)
		if err != nil {
			return
		}
		if s.iterations <= 0 || s.iter < 0 || s.iter > s.iterations {
			t.Fatalf("accepted snapshot with invalid cursor %d/%d", s.iter, s.iterations)
		}
		if s.finalTemp > s.initialTemp || !(s.initialTemp > 0) {
			t.Fatalf("accepted snapshot with invalid temps %v/%v", s.initialTemp, s.finalTemp)
		}
		if s.accepted > s.proposed {
			t.Fatalf("accepted snapshot with accepted %d > proposed %d", s.accepted, s.proposed)
		}
	})
}
