package hsgraph_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/hsgraph"
	"repro/internal/rng"
	"repro/internal/topo"
)

// Kernel microbenchmarks for the code bench/ times only end to end. Each
// checks its results against values recorded at set-up.

// BenchmarkEvaluator times one evaluation on the sharded pool, at one
// worker and at GOMAXPROCS workers, on BenchmarkEvaluateBitParallel's
// graph (n=1024, m=194, r=15). Every result must equal EvaluateSlow's.
func BenchmarkEvaluator(b *testing.B) {
	g, err := hsgraph.RandomConnected(1024, 194, 15, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	want := g.EvaluateSlow()
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ev := hsgraph.NewEvaluator(w)
			defer ev.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := ev.Evaluate(g); got != want {
					b.Fatalf("Evaluate %+v, want %+v", got, want)
				}
			}
		})
	}
}

// BenchmarkIncrementalMove times IncrementalEvaluator moves on a fixed
// script of edge removals, at bench/'s design cell (n=1024, m=195, r=15)
// and scale cell (n=16384, m=4060, r=16, 4-fold symmetry, orbit mode,
// whole-orbit edits), over an Evaluator of one worker and of GOMAXPROCS
// workers, the pool an anneal's cache runs on. rejected is edit,
// PeekEnergy, revert; accepted is edit, PeekEnergy, Energy (the commit),
// and then the same for the re-addition, so every op ends on the start
// graph. Each peek and commit must equal EvaluateSlow's energy, recorded
// at set-up.
func BenchmarkIncrementalMove(b *testing.B) {
	cells := []struct {
		name       string
		sym, moves int
		build      func() (*hsgraph.Graph, error)
	}{
		{"design/n=1024,r=15", 1, 32, func() (*hsgraph.Graph, error) {
			return hsgraph.RandomConnected(1024, 195, 15, rng.New(1))
		}},
		{"scale/n=16384,r=16,g=4", 4, 8, func() (*hsgraph.Graph, error) {
			return topo.RandomSymmetric(16384, 4060, 16, 4, 1)
		}},
	}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			script := orbitScript(g, c.sym, c.moves, rng.New(11))
			base := slowEnergy(g)
			removed := make([]energy, len(script))
			for i, e := range script {
				toggleOrbit(b, g, c.sym, e)
				removed[i] = slowEnergy(g)
				toggleOrbit(b, g, c.sym, e)
			}
			for _, w := range workers {
				b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
					benchMoves(b, g, c.sym, w, script, base, removed)
				})
			}
		})
	}
}

// benchMoves runs BenchmarkIncrementalMove's rejected and accepted moves
// over an Evaluator of the given workers.
func benchMoves(b *testing.B, g *hsgraph.Graph, sym, workers int, script [][2]int, base energy, removed []energy) {
	ev := hsgraph.NewEvaluator(workers)
	defer ev.Close()
	attach := func() *hsgraph.IncrementalEvaluator {
		ie := hsgraph.NewIncrementalEvaluator(ev, sym)
		if got := commit(ie, g); got != base {
			b.Fatalf("attach: energy %+v, want %+v", got, base)
		}
		return ie
	}
	b.Run("rejected", func(b *testing.B) {
		ie := attach()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, e := range script {
				toggleOrbit(b, g, sym, e)
				peekCheck(b, ie, g, removed[j])
				toggleOrbit(b, g, sym, e)
			}
		}
		b.StopTimer()
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*len(script)), "ns/move")
	})
	b.Run("accepted", func(b *testing.B) {
		ie := attach()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, e := range script {
				for _, want := range []energy{removed[j], base} {
					toggleOrbit(b, g, sym, e)
					peekCheck(b, ie, g, want)
					if got := commit(ie, g); got != want {
						b.Fatalf("commit: energy %+v, want %+v", got, want)
					}
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(2*b.N*len(script)), "ns/move")
	})
}

// energy is an evaluator's verdict on a graph: the total host-pair path
// length, 0 when the hosts are disconnected.
type energy struct {
	total     int64
	connected bool
}

func slowEnergy(g *hsgraph.Graph) energy {
	met := g.EvaluateSlow()
	if !met.Connected {
		return energy{}
	}
	return energy{met.TotalPath, true}
}

func commit(ie *hsgraph.IncrementalEvaluator, g *hsgraph.Graph) energy {
	e, c := ie.Energy(g)
	return energy{e, c}
}

func peekCheck(b *testing.B, ie *hsgraph.IncrementalEvaluator, g *hsgraph.Graph, want energy) {
	b.Helper()
	e, c, ok := ie.PeekEnergy(g)
	if !ok || (energy{e, c}) != want {
		b.Fatalf("PeekEnergy (%d, %v, ok=%v), want %+v", e, c, ok, want)
	}
}

// orbitScript picks the given number of distinct edge orbits of the
// sym-symmetric g (sym 1: distinct edges), each named by one member. Edges joining
// switches m/2 apart are skipped: their orbits have only sym/2 members.
func orbitScript(g *hsgraph.Graph, sym, moves int, rnd *rng.Rand) [][2]int {
	m := g.Switches()
	q := m / sym
	seen := make(map[int]bool)
	var script [][2]int
	for len(script) < moves {
		a, b := g.Edge(rnd.Intn(g.NumEdges()))
		if sym > 1 && (b-a+m)%m == m/2 {
			continue
		}
		key := m * m // the orbit's smallest member, as min*m + max
		for j := 0; j < sym; j++ {
			x, y := (a+j*q)%m, (b+j*q)%m
			key = min(key, min(x, y)*m+max(x, y))
		}
		if !seen[key] {
			seen[key] = true
			script = append(script, [2]int{a, b})
		}
	}
	return script
}

// toggleOrbit removes edge e and its sym-1 images if e is present, and
// adds them otherwise.
func toggleOrbit(b *testing.B, g *hsgraph.Graph, sym int, e [2]int) {
	b.Helper()
	m := g.Switches()
	q := m / sym
	remove := g.HasEdge(e[0], e[1])
	for j := 0; j < sym; j++ {
		x, y := (e[0]+j*q)%m, (e[1]+j*q)%m
		var err error
		if remove {
			err = g.Disconnect(x, y)
		} else {
			err = g.Connect(x, y)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateSnapshot times the checkpoint codec for a graph at n=1024,
// r=24 and m = m_opt = 79: encode is ckpt.Seal over MarshalState, decode
// is ckpt.Open then UnmarshalState. Both must reproduce the bytes recorded
// at set-up.
func BenchmarkStateSnapshot(b *testing.B) {
	const kind = "orp.bench.graph"
	g, err := hsgraph.RandomConnected(1024, 79, 24, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sealed := ckpt.Seal(kind, g.MarshalState())
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(sealed)))
		b.ReportAllocs()
		var got []byte
		for i := 0; i < b.N; i++ {
			got = ckpt.Seal(kind, g.MarshalState())
		}
		if !bytes.Equal(got, sealed) {
			b.Fatal("encoded snapshot differs from the one recorded at set-up")
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(sealed)))
		b.ReportAllocs()
		var got *hsgraph.Graph
		for i := 0; i < b.N; i++ {
			k, payload, err := ckpt.Open(sealed)
			if err != nil || k != kind {
				b.Fatalf("Open: kind %q, %v", k, err)
			}
			if got, err = hsgraph.UnmarshalState(payload); err != nil {
				b.Fatal(err)
			}
		}
		if !bytes.Equal(ckpt.Seal(kind, got.MarshalState()), sealed) {
			b.Fatal("decoded graph does not re-encode to the snapshot")
		}
	})
}

// BenchmarkRead times parsing the canonical text of bench/'s design cell
// (n=1024, m=195, r=15; ~24 KB), what orpd does before it can key an
// inline graph. Every parse must be Equal to the written graph.
func BenchmarkRead(b *testing.B) {
	g, err := hsgraph.RandomConnected(1024, 195, 15, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hsgraph.Write(&buf, g); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := hsgraph.Read(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		if !hsgraph.Equal(got, g) {
			b.Fatal("parsed graph differs from the one written at set-up")
		}
	}
}

// BenchmarkRandomConnected times generating bench/'s design cell (n=1024,
// m=195, r=15), which every cold orpd eval and every generated anneal
// start pays. Every generated graph must equal, in storage order, the
// one recorded at set-up.
func BenchmarkRandomConnected(b *testing.B) {
	g, err := hsgraph.RandomConnected(1024, 195, 15, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	want := g.MarshalState()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := hsgraph.RandomConnected(1024, 195, 15, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got.MarshalState(), want) {
			b.Fatal("generated graph differs from the one recorded at set-up")
		}
	}
}
