package runstore

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/ckpt"
)

// RecordKind is the payload kind string sealed into every record's
// envelope. Bump the suffix whenever the binary layout below changes;
// a store scan skips (and counts) records of any other kind rather than
// guessing at their layout, so old and new records can share one file
// without a torn read.
const RecordKind = "orp.run.v1"

// Decode caps. A corrupt length field must not be able to demand more
// memory than the envelope could physically hold; these are generous
// bounds on real records, not format limits.
const (
	maxString      = 1 << 12 // kind/tool/ID/fingerprint/eval-mode strings
	maxTracePoints = 1 << 16 // energy-trace samples kept per record
	maxPhases      = 1 << 8  // wall-time decomposition entries
	maxResult      = 1 << 26 // 64 MiB of result JSON
)

// Metrics is the flat evaluation summary stored per record. It mirrors
// hsgraph.Metrics field for field but is owned by the store so the file
// format cannot drift when the in-memory type grows.
type Metrics struct {
	HASPL          float64 `json:"haspl"`
	Diameter       int     `json:"diameter"`
	Connected      bool    `json:"connected"`
	TotalPath      int64   `json:"totalPath"`
	ReachablePairs int64   `json:"reachablePairs"`
}

// Phase is one entry of a record's span-derived wall-time decomposition
// (e.g. "queue.wait" → 1.4s). Stored as an ordered slice rather than a
// map so equal records always encode to equal bytes.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Record is one completed run: an anneal, a fault sweep or a graph
// evaluation, whether it ran inside orpd or as a batch CLI invocation.
// Everything needed to query history without re-running anything — the
// problem cell (N, R, M), the search configuration, the final metrics, a
// bounded convergence trace, the wall-time decomposition, and the
// verbatim result-JSON bytes the run produced (the byte-identity
// contract of the orpd result cache rides on these bytes).
type Record struct {
	// ID is assigned by Store.Append ("r00000042") and survives
	// compaction.
	ID string `json:"id"`
	// Unix is the completion time in nanoseconds since the epoch.
	Unix int64 `json:"unix"`
	// Tool names the producing process: "orpd", "orpsolve", "orpfault".
	Tool string `json:"tool"`
	// Kind is the run type: "eval", "anneal" or "sweep".
	Kind string `json:"kind"`
	// Build is the producing binary's build identity (buildinfo.String).
	Build string `json:"build,omitempty"`

	// Key is the content address of the result for cache-addressable
	// runs (orpd's JobSpec.cacheKey). Empty for CLI runs: their result
	// JSON schemas differ from the service's, so serving them from the
	// orpd cache would break byte-identity.
	Key string `json:"key,omitempty"`
	// Fingerprint is the canonical graph fingerprint (hex) of the run's
	// final graph.
	Fingerprint string `json:"fingerprint,omitempty"`

	Seed     uint64 `json:"seed"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	R        int    `json:"r"`
	Symmetry int    `json:"symmetry,omitempty"`
	// EvalMode is the evaluation mode records written before the
	// annealer chose its evaluator by size carry; new records leave it
	// empty.
	EvalMode string `json:"evalMode,omitempty"`
	Workers  int    `json:"workers,omitempty"`

	Metrics Metrics `json:"metrics"`

	// EnergyTrace is the bounded best-energy convergence trace
	// (opt.Result.EnergyTrace, already decimated to at most 2048 samples
	// by the annealer); Stride is iterations per sample.
	EnergyTrace       []float64 `json:"energyTrace,omitempty"`
	EnergyTraceStride int       `json:"energyTraceStride,omitempty"`

	// Phases is the span-derived wall-time decomposition of the run
	// (orpd: admission/cache.lookup/queue.wait/run episodes; CLIs:
	// engine stage spans), sorted by name.
	Phases []Phase `json:"phases,omitempty"`

	WallSeconds float64 `json:"wallSeconds"`
	// CPUSeconds is the process CPU time attributable to the run where
	// the producer can measure it (single-run CLIs); 0 when it cannot
	// (concurrent orpd jobs share one process).
	CPUSeconds float64 `json:"cpuSeconds,omitempty"`

	// Result is the run's verbatim result-JSON bytes. Deliberately kept
	// out of the record's own JSON marshaling (history listings would
	// balloon); orphist show -result prints it explicitly.
	Result []byte `json:"-"`
}

// PhasesFromDurations converts a name→seconds map (obs.PhaseDurations)
// into the deterministic sorted form records store.
func PhasesFromDurations(d map[string]float64) []Phase {
	if len(d) == 0 {
		return nil
	}
	out := make([]Phase, 0, len(d))
	for name, sec := range d {
		out = append(out, Phase{Name: name, Seconds: sec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricsOf flattens the evaluation summary from its report-level
// pieces. haspl is the connected-graph h-ASPL (callers pass the raw
// metric, not the -1 sentinel GraphReport uses for disconnection).
func MetricsOf(haspl float64, diameter int, connected bool, totalPath, reachablePairs int64) Metrics {
	return Metrics{
		HASPL:          haspl,
		Diameter:       diameter,
		Connected:      connected,
		TotalPath:      totalPath,
		ReachablePairs: reachablePairs,
	}
}

// encode serializes the record payload with the ckpt codec: fixed field
// order, length-prefixed slices, no maps — equal records encode to equal
// bytes.
func (r *Record) encode() []byte {
	var e ckpt.Enc
	e.String(r.ID)
	e.I64(r.Unix)
	e.String(r.Tool)
	e.String(r.Kind)
	e.String(r.Build)
	e.String(r.Key)
	e.String(r.Fingerprint)
	e.U64(r.Seed)
	e.Int(r.N)
	e.Int(r.M)
	e.Int(r.R)
	e.Int(r.Symmetry)
	e.String(r.EvalMode)
	e.Int(r.Workers)
	e.F64(r.Metrics.HASPL)
	e.Int(r.Metrics.Diameter)
	e.Bool(r.Metrics.Connected)
	e.I64(r.Metrics.TotalPath)
	e.I64(r.Metrics.ReachablePairs)
	e.F64s(r.EnergyTrace)
	e.Int(r.EnergyTraceStride)
	e.U64(uint64(len(r.Phases)))
	for _, p := range r.Phases {
		e.String(p.Name)
		e.F64(p.Seconds)
	}
	e.F64(r.WallSeconds)
	e.F64(r.CPUSeconds)
	e.Bytes(r.Result)
	return e.Finish()
}

// decodeRecord parses a payload written by encode. Like every decoder in
// this repository's persistence layer it never panics and never
// allocates more than the input could hold: the first bounds failure
// sticks and surfaces as an error.
func decodeRecord(payload []byte) (Record, error) {
	d := ckpt.NewDec(payload)
	var r Record
	r.ID = d.String(maxString)
	r.Unix = d.I64()
	r.Tool = d.String(maxString)
	r.Kind = d.String(maxString)
	r.Build = d.String(maxString)
	r.Key = d.String(maxString)
	r.Fingerprint = d.String(maxString)
	r.Seed = d.U64()
	r.N = d.Int()
	r.M = d.Int()
	r.R = d.Int()
	r.Symmetry = d.Int()
	r.EvalMode = d.String(maxString)
	r.Workers = d.Int()
	r.Metrics.HASPL = d.F64()
	r.Metrics.Diameter = d.Int()
	r.Metrics.Connected = d.Bool()
	r.Metrics.TotalPath = d.I64()
	r.Metrics.ReachablePairs = d.I64()
	r.EnergyTrace = d.F64s(maxTracePoints)
	r.EnergyTraceStride = d.Int()
	nPhases := d.U64()
	if nPhases > maxPhases {
		return Record{}, fmt.Errorf("runstore: %d phases exceeds cap %d", nPhases, maxPhases)
	}
	if d.Err() == nil {
		r.Phases = make([]Phase, 0, nPhases)
		for i := uint64(0); i < nPhases; i++ {
			r.Phases = append(r.Phases, Phase{Name: d.String(maxString), Seconds: d.F64()})
		}
	}
	r.WallSeconds = d.F64()
	r.CPUSeconds = d.F64()
	// Copy out of the envelope buffer: the scan reuses it.
	if b := d.Bytes(maxResult); len(b) > 0 {
		r.Result = append([]byte(nil), b...)
	}
	if err := d.Done(); err != nil {
		return Record{}, err
	}
	if r.ID == "" {
		return Record{}, fmt.Errorf("runstore: record without an ID")
	}
	return r, nil
}

// ResultJSON returns the record's result bytes as a json.RawMessage
// (nil when the record carries none).
func (r *Record) ResultJSON() json.RawMessage { return r.Result }
