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

// TestRepairMatchesReference: Repair's warm-start anneal, on the exact
// path below the size threshold (m=32) and on the incremental cache above
// it (m=80), reproduces the reference anneal whose candidate energies
// come from EvaluateSlow — every accept decision and RNG draw, and
// therefore the result and the repaired graph itself, move for move.
func TestRepairMatchesReference(t *testing.T) {
	large, err := hsgraph.RandomConnected(320, 80, 10, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.Sample(large, fault.UniformLinks, 0.08, 17)
	if err != nil {
		t.Fatal(err)
	}
	dl, err := fault.Apply(large, sc)
	if err != nil {
		t.Fatal(err)
	}
	_, ds := degrade(t, 0.08)
	for _, d := range []*fault.Degraded{ds, dl} {
		o := RepairOptions{Iterations: 600, Seed: 21, MaxNewLinks: d.FailedLinks}
		ro := o
		ro.reference = true
		want, wantRes, err := Repair(d.Graph, nil, ro)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			o.Workers = workers
			g, res, err := Repair(d.Graph, nil, o)
			if err != nil {
				t.Fatal(err)
			}
			if res != wantRes {
				t.Fatalf("m=%d workers=%d: result diverged from the reference: %+v vs %+v", d.Graph.Switches(), workers, res, wantRes)
			}
			if g.Fingerprint() != want.Fingerprint() {
				t.Fatalf("m=%d workers=%d: repaired graph diverged from the reference", d.Graph.Switches(), workers)
			}
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
