package simnet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hsgraph"
	"repro/internal/rng"
)

// testNetwork builds a small fixture: 3 switches in a path, 2 hosts each.
func testNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	g, err := hsgraph.Path(6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRouteStructure(t *testing.T) {
	nw := testNetwork(t, Config{})
	// Hosts 0,1 on switch 0; 2,3 on switch 1; 4,5 on switch 2.
	links, err := nw.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 4 {
		t.Fatalf("route 0->5 has %d links, want 4", len(links))
	}
	// Consecutive links must chain: to of link i == from of link i+1.
	for i := 0; i+1 < len(links); i++ {
		if nw.linkTo[links[i]] != nw.linkFrom[links[i+1]] {
			t.Fatalf("route not contiguous at hop %d", i)
		}
	}
	if nw.linkFrom[links[0]] != 0 || nw.linkTo[links[len(links)-1]] != 5 {
		t.Fatal("route endpoints wrong")
	}
	if nw.Hops(0, 5) != 4 || nw.Hops(0, 1) != 2 || nw.Hops(3, 3) != 0 {
		t.Fatal("Hops wrong")
	}
	if _, err := nw.Route(0, 99); err == nil {
		t.Fatal("out-of-range host accepted")
	}
	if p, err := nw.Route(2, 2); err != nil || p != nil {
		t.Fatal("self route should be nil")
	}
}

func TestSingleFlowTiming(t *testing.T) {
	cfg := Config{BandwidthBps: 1e9, LatencyPerHop: 1e-6, MessageOverhead: 5e-6}
	nw := testNetwork(t, cfg)
	s := NewSim(nw)
	var finish float64
	s.Spawn(0, func(p *Proc) {
		sg, err := s.StartFlow(0, 5, 1e6) // 1 MB over 4 hops
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(sg)
		finish = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 5e-6 + 4*1e-6 + 1e6/1e9
	if math.Abs(finish-want) > 1e-12 {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	if s.FlowsCompleted != 1 {
		t.Fatalf("FlowsCompleted = %d", s.FlowsCompleted)
	}
}

func TestSelfAndZeroByteFlows(t *testing.T) {
	cfg := Config{BandwidthBps: 1e9, LatencyPerHop: 1e-6, MessageOverhead: 5e-6}
	nw := testNetwork(t, cfg)
	s := NewSim(nw)
	var tSelf, tZero float64
	s.Spawn(0, func(p *Proc) {
		sg, err := s.StartFlow(0, 0, 123)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(sg)
		tSelf = p.Now()
		sg2, err := s.StartFlow(0, 5, 0)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(sg2)
		tZero = p.Now() - tSelf
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tSelf-5e-6) > 1e-12 {
		t.Fatalf("self flow time = %v, want overhead 5e-6", tSelf)
	}
	if math.Abs(tZero-(5e-6+4e-6)) > 1e-12 {
		t.Fatalf("zero-byte time = %v, want %v", tZero, 9e-6)
	}
}

func TestFairSharing(t *testing.T) {
	// Two hosts on switch 0 send to the two hosts on switch 2
	// simultaneously: both flows traverse the two inter-switch links and
	// must each get half the bandwidth.
	cfg := Config{BandwidthBps: 1e9, LatencyPerHop: 1e-9, MessageOverhead: 1e-9}
	nw := testNetwork(t, cfg)
	s := NewSim(nw)
	finish := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(i, func(p *Proc) {
			sg, err := s.StartFlow(i, 4+i, 1e6)
			if err != nil {
				t.Error(err)
				return
			}
			p.Wait(sg)
			finish[i] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2 * 1e6 / 1e9 // half bandwidth each
	for i, f := range finish {
		if math.Abs(f-want) > want*0.01 {
			t.Fatalf("flow %d finished at %v, want ~%v", i, f, want)
		}
	}
}

func TestDisjointFlowsFullRate(t *testing.T) {
	// Host 0 -> host 1 (same switch) and host 4 -> host 5 (same switch):
	// disjoint paths, both at full rate.
	cfg := Config{BandwidthBps: 1e9, LatencyPerHop: 1e-9, MessageOverhead: 1e-9}
	nw := testNetwork(t, cfg)
	s := NewSim(nw)
	finish := make([]float64, 2)
	pairs := [][2]int{{0, 1}, {4, 5}}
	for i, pr := range pairs {
		i, pr := i, pr
		s.Spawn(pr[0], func(p *Proc) {
			sg, err := s.StartFlow(pr[0], pr[1], 1e6)
			if err != nil {
				t.Error(err)
				return
			}
			p.Wait(sg)
			finish[i] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1e6 / 1e9
	for i, f := range finish {
		if math.Abs(f-want) > want*0.01 {
			t.Fatalf("flow %d finished at %v, want ~%v (full rate)", i, f, want)
		}
	}
}

func TestMaxMinAsymmetric(t *testing.T) {
	// Host 0 -> 2 (shares link sw0-sw1) and host 1 -> 4 (sw0-sw1 and
	// sw1-sw2). Both flows share the sw0->sw1 link: max-min gives each
	// 1/2. After the short flow ends the long one speeds up to full rate.
	cfg := Config{BandwidthBps: 1e9, LatencyPerHop: 1e-12, MessageOverhead: 1e-12}
	nw := testNetwork(t, cfg)
	s := NewSim(nw)
	var tShort, tLong float64
	s.Spawn(0, func(p *Proc) {
		sg, err := s.StartFlow(0, 2, 1e6)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(sg)
		tShort = p.Now()
	})
	s.Spawn(1, func(p *Proc) {
		sg, err := s.StartFlow(1, 4, 2e6)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(sg)
		tLong = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Short: 1e6 at 0.5e9 -> 2 ms. Long: 1e6 at 0.5e9 (2ms) + 1e6 at 1e9
	// (1ms) -> 3 ms.
	if math.Abs(tShort-2e-3) > 2e-5 {
		t.Fatalf("short flow = %v, want ~2e-3", tShort)
	}
	if math.Abs(tLong-3e-3) > 3e-5 {
		t.Fatalf("long flow = %v, want ~3e-3", tLong)
	}
}

func TestSleepAndOrdering(t *testing.T) {
	nw := testNetwork(t, Config{})
	s := NewSim(nw)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(i, func(p *Proc) {
			p.Sleep(float64(3-i) * 1e-3)
			order = append(order, i)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("wake order = %v, want [2 1 0]", order)
	}
}

func TestDeadlockDetected(t *testing.T) {
	nw := testNetwork(t, Config{})
	s := NewSim(nw)
	s.Spawn(0, func(p *Proc) {
		p.Wait(s.NewSignal()) // never fires
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	nw := testNetwork(t, Config{})
	s := NewSim(nw)
	s.Spawn(0, func(p *Proc) {
		panic("boom")
	})
	err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestWaitAllAndFiredSignal(t *testing.T) {
	nw := testNetwork(t, Config{})
	s := NewSim(nw)
	var done bool
	s.Spawn(0, func(p *Proc) {
		a, b := s.NewSignal(), s.NewSignal()
		s.FireAt(a, 1e-3)
		s.FireAt(b, 2e-3)
		p.WaitAll(a, b)
		if !a.Fired() || !b.Fired() {
			t.Error("signals not fired")
		}
		p.Wait(a) // already fired: returns immediately
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("body did not complete")
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() []float64 {
		g, err := hsgraph.RandomConnected(16, 6, 6, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		nw, err := NewNetwork(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSim(nw)
		finish := make([]float64, 16)
		for i := 0; i < 16; i++ {
			i := i
			s.Spawn(i, func(p *Proc) {
				sg, err := s.StartFlow(i, (i+5)%16, float64(1000*(i+1)))
				if err != nil {
					t.Error(err)
					return
				}
				p.Wait(sg)
				finish[i] = p.Now()
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timing %d differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHashSpreadRoutesValid(t *testing.T) {
	g, err := hsgraph.RandomConnected(20, 8, 6, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []TieBreak{LowestIndex, HashSpread} {
		nw, err := NewNetwork(g, Config{TieBreak: tb})
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 20; src++ {
			for dst := 0; dst < 20; dst++ {
				if src == dst {
					continue
				}
				links, err := nw.Route(src, dst)
				if err != nil {
					t.Fatalf("tiebreak %v: route(%d,%d): %v", tb, src, dst, err)
				}
				if len(links) != nw.Hops(src, dst) {
					t.Fatalf("tiebreak %v: route length %d != hops %d", tb, len(links), nw.Hops(src, dst))
				}
				for i := 0; i+1 < len(links); i++ {
					if nw.linkTo[links[i]] != nw.linkFrom[links[i+1]] {
						t.Fatal("discontiguous route")
					}
				}
			}
		}
	}
}

func TestRouteMatchesGraphDistance(t *testing.T) {
	g, err := hsgraph.RandomConnected(24, 8, 7, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 24; a++ {
		for b := 0; b < 24; b++ {
			if a == b {
				continue
			}
			if nw.Hops(a, b) != g.HostDistance(a, b) {
				t.Fatalf("Hops(%d,%d) = %d, graph says %d", a, b, nw.Hops(a, b), g.HostDistance(a, b))
			}
		}
	}
}

func TestNegativeFlowRejected(t *testing.T) {
	nw := testNetwork(t, Config{})
	s := NewSim(nw)
	if _, err := s.StartFlow(0, 1, -5); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestLinkStatsTracking(t *testing.T) {
	cfg := Config{BandwidthBps: 1e9, LatencyPerHop: 1e-9, MessageOverhead: 1e-9}
	nw := testNetwork(t, cfg)
	s := NewSim(nw)
	s.TrackLinkStats = true
	s.Spawn(0, func(p *Proc) {
		sg, err := s.StartFlow(0, 5, 1e6)
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait(sg)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	loads := s.LinkLoads()
	if len(loads) != nw.NumLinks() {
		t.Fatalf("got %d loads for %d links", len(loads), nw.NumLinks())
	}
	// Exactly the 4 route links carried 1e6 bytes; all others zero.
	carried := 0
	for _, l := range loads {
		switch {
		case l.Bytes > 0.999e6 && l.Bytes < 1.001e6:
			carried++
		case l.Bytes != 0:
			t.Fatalf("link %d->%d carried unexpected %v bytes", l.From, l.To, l.Bytes)
		}
	}
	if carried != 4 {
		t.Fatalf("%d links carried the flow, want 4", carried)
	}
}

func TestLinkStatsDisabledByDefault(t *testing.T) {
	nw := testNetwork(t, Config{})
	s := NewSim(nw)
	s.Spawn(0, func(p *Proc) {
		sg, _ := s.StartFlow(0, 5, 1000)
		p.Wait(sg)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, l := range s.LinkLoads() {
		if l.Bytes != 0 {
			t.Fatal("nonzero load reported without tracking")
		}
	}
}
