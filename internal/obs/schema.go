package obs

import "repro/internal/buildinfo"

// The stable event schema. Every long-running engine emits Events through
// a Sink; consumers (cmd/orptrace, dashboards, regression tooling) parse
// JSONL files of these records. The contract:
//
//   - One JSON object per line (JSONL).
//   - Every record carries "t" (seconds; wall-clock since process start
//     for engine telemetry, simulated seconds for simulator events),
//     "kind" (one of the Kind* constants below) and optional numeric
//     ("f") and string ("s") field maps.
//   - The first record of a file is KindHeader with f["version"] ==
//     SchemaVersion. Consumers must accept unknown kinds and unknown
//     fields inside known kinds (the schema only grows).
//
// Field keys per kind:
//
//	anneal.sample: iter, temp, current, best, accepted, proposed,
//	               swingAttempts, swingAccepts, counterAttempts,
//	               counterAccepts, swapAttempts, swapAccepts,
//	               movesPerSec, restart, incSyncs, incFullRebuilds,
//	               incPeeks (every key on every sample; one encoder,
//	               opt.AnnealSample.Event, writes them)
//	anneal.done:   iters, bestTotalPath, bestHASPL, acceptRate, seconds
//	sweep.trial:   fraction, trial, done, total, seconds,
//	               survivingHASPL, stretch, reachableFrac, failedLinks,
//	               failedSwitches (one encoder, fault.TrialProgress.Event,
//	               writes them)
//	sweep.done:    trials, seconds
//	flow.*:        see simnet.FlowTracer (exported via Chrome trace
//	               rather than JSONL; listed here for kind stability)
//	span:          f: id, parent (0/absent = root), start, dur (seconds
//	               relative to the trace epoch) plus numeric attributes;
//	               s: name, trace (the trace/job ID) plus string
//	               attributes. See span.go; trees are rebuilt with
//	               BuildSpanTrees.

// SchemaVersion is bumped whenever an existing field changes meaning
// (never for plain additions). v2: streams may carry causal "span"
// events (span.go) and serve streams the "stream.gap" marker — a v2
// consumer following a job stream must treat stream.gap as a documented
// discontinuity rather than corruption, which is a semantic change to
// the follow contract, hence the bump.
const SchemaVersion = 2

// Event kinds.
const (
	KindHeader       = "obs.header"
	KindAnnealSample = "anneal.sample"
	KindAnnealDone   = "anneal.done"
	KindSweepTrial   = "sweep.trial"
	KindSweepDone    = "sweep.done"
	KindFlowStart    = "flow.start"
	KindFlowReroute  = "flow.reroute"
	KindFlowFinish   = "flow.finish"
	KindFlowFail     = "flow.fail"
	KindSpan         = "span"
)

// Event is one structured telemetry record.
type Event struct {
	T    float64            `json:"t"`
	Kind string             `json:"kind"`
	F    map[string]float64 `json:"f,omitempty"`
	S    map[string]string  `json:"s,omitempty"`
}

// Header returns the file-leading header event. Beyond the schema
// version it stamps the build identity of the emitting process (module,
// Go toolchain, VCS revision when recorded), so an archived JSONL stream
// names the exact build that produced it. Consumers must tolerate the
// string fields being absent: test binaries and bare `go run` builds
// carry no VCS stamps.
func Header() Event {
	bi := buildinfo.Get()
	s := map[string]string{}
	if bi.Module != "" {
		s["module"] = bi.Module
	}
	if bi.GoVersion != "" {
		s["go"] = bi.GoVersion
	}
	if bi.Revision != "" {
		s["revision"] = bi.Revision
		if bi.Dirty {
			s["dirty"] = "true"
		}
	}
	if len(s) == 0 {
		s = nil
	}
	return Event{Kind: KindHeader, F: map[string]float64{"version": SchemaVersion}, S: s}
}
