package opt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// degrade returns an annealed graph plus a link-failure degradation of it.
func degrade(t *testing.T, frac float64) (*hsgraph.Graph, *fault.Degraded) {
	t.Helper()
	start, err := hsgraph.RandomConnected(128, 32, 10, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := Anneal(start, Options{Iterations: 3000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.Sample(g, fault.UniformLinks, frac, 17)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fault.Apply(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	return g, d
}

// TestRepairRecoversLinkFailures is the acceptance property at test scale:
// after 5% random link failures, Repair must recover at least half of the
// h-ASPL degradation and must restore the link count (every freed port
// pair gets a spare cable).
func TestRepairRecoversLinkFailures(t *testing.T) {
	g, d := degrade(t, 0.05)
	pristine := g.Evaluate()
	repaired, res, err := Repair(d.Graph, nil, RepairOptions{Iterations: 2000, Seed: 5, MaxNewLinks: d.FailedLinks})
	if err != nil {
		t.Fatal(err)
	}
	if err := repaired.Validate(); err != nil {
		t.Fatalf("repaired graph invalid: %v", err)
	}
	if !res.After.Connected {
		t.Fatalf("repair left the graph disconnected: %+v", res.After)
	}
	if repaired.NumEdges() != g.NumEdges() {
		t.Fatalf("repair restored %d links, pristine had %d", repaired.NumEdges(), g.NumEdges())
	}
	before := float64(res.Before.TotalPath) / float64(res.Before.ReachablePairs)
	degradation := before - pristine.HASPL
	recovery := before - res.After.HASPL
	if degradation <= 0 {
		t.Skipf("5%% failures did not degrade h-ASPL (%.4f -> %.4f)", pristine.HASPL, before)
	}
	if recovery < degradation/2 {
		t.Fatalf("repair recovered %.4f of %.4f degradation (< half): pristine %.4f degraded %.4f repaired %.4f",
			recovery, degradation, pristine.HASPL, before, res.After.HASPL)
	}
}

// TestRepairSwitchFailure: failed switches must stay dead, their hosts
// re-homed, and the result must be a valid connected graph.
func TestRepairSwitchFailure(t *testing.T) {
	g, err := hsgraph.RandomConnected(96, 24, 10, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.Sample(g, fault.UniformSwitches, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Switches) == 0 {
		t.Fatal("scenario failed no switches")
	}
	d, err := fault.Apply(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	repaired, res, err := Repair(d.Graph, sc.Switches, RepairOptions{Iterations: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sc.Switches {
		if repaired.SwitchDegree(int(s)) != 0 || repaired.HostCount(int(s)) != 0 {
			t.Fatalf("failed switch %d was resurrected", s)
		}
	}
	if res.HostsReattached != len(d.DetachedHosts) {
		t.Fatalf("reattached %d of %d stranded hosts", res.HostsReattached, len(d.DetachedHosts))
	}
	if err := repaired.Validate(); err != nil {
		t.Fatalf("repaired graph invalid: %v", err)
	}
	if !res.After.Connected {
		t.Fatalf("repair left hosts unreachable: %+v", res.After)
	}
}

// TestRepairEvalModesBitIdentical is the differential contract for
// RepairOptions.Eval: the incremental evaluator returns bit-identical
// energies to the exact sharded sweep, so every accept decision, RNG
// draw, and therefore the repaired graph itself must match move for
// move.
func TestRepairEvalModesBitIdentical(t *testing.T) {
	_, d := degrade(t, 0.08)
	base := RepairOptions{Iterations: 800, Seed: 21, MaxNewLinks: d.FailedLinks}

	exact, rExact, err := Repair(d.Graph, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Eval = EvalIncremental
	g, r, err := Repair(d.Graph, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	if r != rExact {
		t.Fatalf("incremental result diverged from exact: %+v vs %+v", r, rExact)
	}
	if g.Fingerprint() != exact.Fingerprint() {
		t.Fatal("incremental repaired graph diverged from exact")
	}
}

// TestRepairRejectsUnknownEvalMode pins input validation: Repair runs
// exact and incremental only (the retired sampled mode 2 included).
func TestRepairRejectsUnknownEvalMode(t *testing.T) {
	_, d := degrade(t, 0.02)
	for _, mode := range []EvalMode{EvalMode(2), EvalSymmetric, EvalMode(99)} {
		if _, _, err := Repair(d.Graph, nil, RepairOptions{Eval: mode}); err == nil {
			t.Fatalf("Repair accepted eval mode %v", mode)
		}
	}
}

// TestRepairDeterministic pins reproducibility.
func TestRepairDeterministic(t *testing.T) {
	_, d := degrade(t, 0.1)
	a, ra, err := Repair(d.Graph, nil, RepairOptions{Iterations: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := Repair(d.Graph, nil, RepairOptions{Iterations: 500, Seed: 9, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ra.After != rb.After || a.NumEdges() != b.NumEdges() {
		t.Fatalf("repair not deterministic across worker counts: %+v vs %+v", ra, rb)
	}
	if ra.Before != d.Graph.Evaluate() {
		t.Fatal("Repair mutated its input")
	}
}
