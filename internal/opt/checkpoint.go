package opt

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// annealKind names the snapshot payload layout. Bump the suffix when the
// layout changes; old files are then rejected with a clear error instead
// of being misparsed. v2 added the evaluation mode and the sampled mode's
// estimator RNG state; v3 added the symmetry order.
const annealKind = "orp.anneal.v3"

// What v3 kept of the retired sampled mode, so the layout is unchanged:
// its stored evaluation mode, and the length of the field that held its
// estimator RNG state (written as zeros, skipped on read). The stored
// mode selects nothing any more (new snapshots write 0): every path
// computes the same energies, so a snapshot carrying any of the four
// modes resumes on the path the graph's size picks.
const (
	evalRetiredLadder     EvalMode = 2
	retiredEstimatorWords          = 4
)

// Decode caps. A snapshot that claims more than these is corrupt (or
// hostile); reject before allocating. They comfortably exceed anything
// the annealer can produce (graphs are capped by hsgraph.MaxReadDim on
// the way back in).
const (
	maxCkptGraph = 1 << 27 // serialized graph text bytes
	maxCkptTrace = 1 << 20 // energy-trace samples
	maxCkptIters = 1 << 40 // iteration budget
)

// annealSnapshot is the decoded wire form of a snapshot: the resolved
// stream-defining options plus the loop state, with the two graphs still
// in their serialized text form.
type annealSnapshot struct {
	iterations     int
	moves          MoveSet
	schedule       Schedule
	initialTemp    float64
	finalTemp      float64
	seed           uint64
	reportEvery    int
	traceEnergy    bool
	energyTraceMax int
	restart        int
	eval           EvalMode
	symmetry       int

	iter               int
	temp               float64
	energy, bestEnergy int64
	rngState           [4]uint64

	accepted, proposed int
	moveCounters       MoveCounters
	initial            hsgraph.Metrics

	traceBuf      []float64
	traceStride   int
	traceInterval int

	graphText, bestText []byte
}

// writeAnnealCheckpoint atomically persists the loop state to path.
func writeAnnealCheckpoint(path string, st *annealState, o *Options) error {
	var e ckpt.Enc
	e.Int(o.Iterations)
	e.Int(int(o.Moves))
	e.Int(int(o.Schedule))
	e.F64(o.InitialTemp)
	e.F64(o.FinalTemp)
	e.U64(o.Seed)
	e.Int(o.ReportEvery)
	e.Bool(o.TraceEnergy)
	e.Int(o.energyTraceMax)
	e.Int(o.restart)
	e.Int(int(EvalExact)) // the retired mode word; every path scores alike
	// Symmetry is stored normalized (1 = generic): it selects the move
	// operators, so it is as stream-defining as the move set itself.
	sym := o.Symmetry
	if sym < 1 {
		sym = 1
	}
	e.Int(sym)

	e.Int(st.iter)
	e.F64(st.temp)
	e.I64(st.energy)
	e.I64(st.bestEnergy)
	for _, s := range st.rnd.State() {
		e.U64(s)
	}
	for range retiredEstimatorWords {
		e.U64(0)
	}

	e.Int(st.res.Accepted)
	e.Int(st.res.Proposed)
	mc := &st.res.Moves
	for _, c := range []int64{mc.SwapAttempts, mc.SwapAccepts, mc.SwingAttempts,
		mc.SwingAccepts, mc.CounterAttempts, mc.CounterAccepts} {
		e.I64(c)
	}
	e.F64(st.res.Initial.HASPL)
	e.Int(st.res.Initial.Diameter)
	e.I64(st.res.Initial.TotalPath)
	e.Bool(st.res.Initial.Connected)
	e.I64(st.res.Initial.ReachablePairs)

	e.F64s(st.tel.buf)
	e.Int(st.tel.stride)
	e.Int(st.tel.interval)

	// Graphs go through the order-preserving state codec, not the
	// canonical text format: the move sampler is sensitive to edge-list,
	// adjacency and host-list ordering, which the text format discards —
	// a resume through it would fork the move stream (caught by
	// TestResumeDeterminismAfterInterrupt).
	e.Bytes(st.g.MarshalState())
	e.Bytes(st.best.MarshalState())

	if err := ckpt.WriteFile(path, annealKind, e.Finish()); err != nil {
		return fmt.Errorf("opt: checkpoint: %w", err)
	}
	return nil
}

// decodeAnnealSnapshot parses and sanity-checks a snapshot payload. It
// never panics on corrupt input and never hands back implausible values;
// the graphs are still unparsed bytes (see loadAnnealState).
func decodeAnnealSnapshot(payload []byte) (*annealSnapshot, error) {
	d := ckpt.NewDec(payload)
	s := &annealSnapshot{}
	s.iterations = d.Int()
	s.moves = MoveSet(d.Int())
	s.schedule = Schedule(d.Int())
	s.initialTemp = d.F64()
	s.finalTemp = d.F64()
	s.seed = d.U64()
	s.reportEvery = d.Int()
	s.traceEnergy = d.Bool()
	s.energyTraceMax = d.Int()
	s.restart = d.Int()
	s.eval = EvalMode(d.Int())
	s.symmetry = d.Int()

	s.iter = d.Int()
	s.temp = d.F64()
	s.energy = d.I64()
	s.bestEnergy = d.I64()
	for i := range s.rngState {
		s.rngState[i] = d.U64()
	}
	for range retiredEstimatorWords {
		d.U64()
	}

	s.accepted = d.Int()
	s.proposed = d.Int()
	mc := &s.moveCounters
	for _, c := range []*int64{&mc.SwapAttempts, &mc.SwapAccepts, &mc.SwingAttempts,
		&mc.SwingAccepts, &mc.CounterAttempts, &mc.CounterAccepts} {
		*c = d.I64()
	}
	s.initial.HASPL = d.F64()
	s.initial.Diameter = d.Int()
	s.initial.TotalPath = d.I64()
	s.initial.Connected = d.Bool()
	s.initial.ReachablePairs = d.I64()

	s.traceBuf = d.F64s(maxCkptTrace)
	s.traceStride = d.Int()
	s.traceInterval = d.Int()

	s.graphText = d.Bytes(maxCkptGraph)
	s.bestText = d.Bytes(maxCkptGraph)
	if err := d.Done(); err != nil {
		return nil, err
	}

	// Structural plausibility. Every violated line means the payload did
	// not come from writeAnnealCheckpoint, CRC notwithstanding.
	switch {
	case s.iterations <= 0 || s.iterations > maxCkptIters:
		return nil, fmt.Errorf("opt: checkpoint: implausible iteration budget %d", s.iterations)
	case s.iter < 0 || s.iter > s.iterations:
		return nil, fmt.Errorf("opt: checkpoint: iteration cursor %d outside budget %d", s.iter, s.iterations)
	case s.moves != SwapOnly && s.moves != SwingOnly && s.moves != TwoNeighborSwing:
		return nil, fmt.Errorf("opt: checkpoint: unknown move set %d", int(s.moves))
	case s.schedule != Geometric && s.schedule != Linear && s.schedule != HillClimb:
		return nil, fmt.Errorf("opt: checkpoint: unknown schedule %d", int(s.schedule))
	case s.reportEvery <= 0:
		return nil, fmt.Errorf("opt: checkpoint: non-positive ReportEvery %d", s.reportEvery)
	case !(s.initialTemp > 0) || math.IsInf(s.initialTemp, 0):
		return nil, fmt.Errorf("opt: checkpoint: invalid InitialTemp %v", s.initialTemp)
	case !(s.finalTemp > 0) || s.finalTemp > s.initialTemp:
		return nil, fmt.Errorf("opt: checkpoint: invalid FinalTemp %v (InitialTemp %v)", s.finalTemp, s.initialTemp)
	case !(s.temp >= 0) || math.IsInf(s.temp, 0):
		return nil, fmt.Errorf("opt: checkpoint: invalid temperature %v", s.temp)
	case s.energyTraceMax < 0:
		return nil, fmt.Errorf("opt: checkpoint: negative energyTraceMax %d", s.energyTraceMax)
	case s.traceStride < 1 || s.traceInterval < 0:
		return nil, fmt.Errorf("opt: checkpoint: invalid trace state stride=%d interval=%d", s.traceStride, s.traceInterval)
	case s.accepted < 0 || s.proposed < 0 || s.accepted > s.proposed:
		return nil, fmt.Errorf("opt: checkpoint: invalid move counts accepted=%d proposed=%d", s.accepted, s.proposed)
	case s.restart < 0:
		return nil, fmt.Errorf("opt: checkpoint: negative restart %d", s.restart)
	case s.eval != EvalExact && s.eval != EvalIncremental && s.eval != evalRetiredLadder && s.eval != EvalSymmetric:
		return nil, fmt.Errorf("opt: checkpoint: unknown evaluation mode %d", int(s.eval))
	case s.symmetry < 1:
		return nil, fmt.Errorf("opt: checkpoint: implausible symmetry order %d", s.symmetry)
	case s.eval == EvalSymmetric && s.symmetry < 2:
		return nil, fmt.Errorf("opt: checkpoint: symmetric evaluation mode with symmetry order %d", s.symmetry)
	}
	return s, nil
}

// CheckpointInfo is the metadata of an anneal snapshot, cheap to read
// (graphs are not parsed): where the run stood when it was taken.
type CheckpointInfo struct {
	Iter, Iterations int
	Restart          int
	Seed             uint64
	Temp             float64
	BestEnergy       int64
}

// ReadCheckpointInfo reads the metadata of the snapshot at path.
func ReadCheckpointInfo(path string) (CheckpointInfo, error) {
	kind, payload, err := ckpt.ReadFile(path)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if kind != annealKind {
		return CheckpointInfo{}, fmt.Errorf("opt: checkpoint: kind %q is not %q", kind, annealKind)
	}
	s, err := decodeAnnealSnapshot(payload)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{
		Iter: s.iter, Iterations: s.iterations, Restart: s.restart,
		Seed: s.seed, Temp: s.temp, BestEnergy: s.bestEnergy,
	}, nil
}

// loadAnnealState reads the snapshot at path, checks it against the
// caller's options (any non-zero stream-defining field must agree — a
// resume that silently used different parameters would break the
// determinism contract), parses and re-validates both graphs, and
// cross-checks the stored energies against a fresh evaluation so a
// logically corrupt snapshot cannot smuggle in a wrong graph. On success
// o's stream-defining fields hold the stored values.
func loadAnnealState(path string, o *Options, ev *hsgraph.Evaluator) (*annealState, error) {
	kind, payload, err := ckpt.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("opt: resume %s: %w", path, err)
	}
	if kind != annealKind {
		return nil, fmt.Errorf("opt: resume %s: kind %q is not %q", path, kind, annealKind)
	}
	s, err := decodeAnnealSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("opt: resume %s: %w", path, err)
	}

	// Fingerprint check. Zero-valued caller fields mean "take the stored
	// value" (they are the documented "default" sentinels); anything the
	// caller set explicitly must match.
	mismatch := func(field string, stored, requested any) error {
		return fmt.Errorf("opt: resume %s: checkpoint has %s=%v but options request %v", path, field, stored, requested)
	}
	switch {
	case o.Iterations != 0 && o.Iterations != s.iterations:
		return nil, mismatch("Iterations", s.iterations, o.Iterations)
	case o.Moves != s.moves:
		return nil, mismatch("Moves", s.moves, o.Moves)
	case o.Schedule != s.schedule:
		return nil, mismatch("Schedule", s.schedule, o.Schedule)
	case o.Seed != s.seed:
		return nil, mismatch("Seed", s.seed, o.Seed)
	case o.InitialTemp != 0 && o.Schedule != HillClimb && o.InitialTemp != s.initialTemp:
		return nil, mismatch("InitialTemp", s.initialTemp, o.InitialTemp)
	case o.FinalTemp != 0 && o.Schedule != HillClimb && o.FinalTemp != s.finalTemp:
		return nil, mismatch("FinalTemp", s.finalTemp, o.FinalTemp)
	case o.ReportEvery != 0 && o.ReportEvery != s.reportEvery:
		return nil, mismatch("ReportEvery", s.reportEvery, o.ReportEvery)
	case o.TraceEnergy != s.traceEnergy:
		return nil, mismatch("TraceEnergy", s.traceEnergy, o.TraceEnergy)
	case o.energyTraceMax != 0 && o.energyTraceMax != s.energyTraceMax:
		return nil, mismatch("energyTraceMax", s.energyTraceMax, o.energyTraceMax)
	case o.restart != s.restart:
		return nil, mismatch("restart", s.restart, o.restart)
	case o.Symmetry > 1 && o.Symmetry != s.symmetry:
		return nil, mismatch("Symmetry", s.symmetry, o.Symmetry)
	case o.Symmetry <= 1 && o.Symmetry != 0 && s.symmetry > 1:
		// An explicit "no symmetry" request cannot resume a symmetric
		// stream; only the zero sentinel adopts the stored order.
		return nil, mismatch("Symmetry", s.symmetry, o.Symmetry)
	}
	o.Symmetry = s.symmetry
	o.Iterations = s.iterations
	o.InitialTemp, o.FinalTemp = s.initialTemp, s.finalTemp
	o.ReportEvery = s.reportEvery
	o.energyTraceMax = s.energyTraceMax

	g, err := readCheckpointGraph(s.graphText, "current", ev, s.energy)
	if err != nil {
		return nil, fmt.Errorf("opt: resume %s: %w", path, err)
	}
	best, err := readCheckpointGraph(s.bestText, "best", ev, s.bestEnergy)
	if err != nil {
		return nil, fmt.Errorf("opt: resume %s: %w", path, err)
	}
	if o.Symmetry > 1 {
		if err := hsgraph.VerifySymmetric(g, o.Symmetry); err != nil {
			return nil, fmt.Errorf("opt: resume %s: current graph: %w", path, err)
		}
		if err := hsgraph.VerifySymmetric(best, o.Symmetry); err != nil {
			return nil, fmt.Errorf("opt: resume %s: best graph: %w", path, err)
		}
	}
	rnd, err := rng.FromState(s.rngState)
	if err != nil {
		return nil, fmt.Errorf("opt: resume %s: %w", path, err)
	}

	st := &annealState{
		g: g, best: best,
		energy: s.energy, bestEnergy: s.bestEnergy,
		temp: s.temp, iter: s.iter, rnd: rnd,
		res: Result{
			Initial:     s.initial,
			Accepted:    s.accepted,
			Proposed:    s.proposed,
			Moves:       s.moveCounters,
			InitialTemp: s.initialTemp,
			FinalTemp:   s.finalTemp,
		},
		tel: telemetry{
			buf:      s.traceBuf,
			stride:   s.traceStride,
			interval: s.traceInterval,
		},
	}
	st.tel.init(*o)
	return st, nil
}

// readCheckpointGraph reconstructs one serialized graph (UnmarshalState
// fully validates it) and cross-checks its energy against the snapshot's
// claim.
func readCheckpointGraph(blob []byte, which string, ev *hsgraph.Evaluator, wantEnergy int64) (*hsgraph.Graph, error) {
	g, err := hsgraph.UnmarshalState(blob)
	if err != nil {
		return nil, fmt.Errorf("%s graph: %w", which, err)
	}
	energy, connected := ev.Energy(g)
	if !connected {
		return nil, fmt.Errorf("%s graph: %w", which, hsgraph.ErrNotConnected)
	}
	if energy != wantEnergy {
		return nil, fmt.Errorf("%s graph: stored energy %d disagrees with evaluation %d", which, wantEnergy, energy)
	}
	return g, nil
}
