// Command orpfigures regenerates the data series behind every figure of
// the paper's evaluation (Figs. 5-11) and prints them as text tables.
//
// Usage:
//
//	orpfigures -fig 1                     # example host-switch graph (DOT)
//	orpfigures -fig 5 [-n 1024 -r 24]     # h-ASPL vs m
//	orpfigures -fig 6                     # host distribution at m_opt
//	orpfigures -fig 7                     # Moore vs continuous Moore
//	orpfigures -fig 8                     # unused switches
//	orpfigures -fig 9                     # torus comparison (a-d)
//	orpfigures -fig 10                    # dragonfly comparison (a-d)
//	orpfigures -fig 11                    # fat-tree comparison (a-d)
//	orpfigures -fig resilience            # degradation under random failures
//	orpfigures -fig convergence           # SA convergence by move set
//	orpfigures -fig all
//
// By default the experiments run at a reduced scale so a full regeneration
// takes minutes; pass -paper for the paper's parameters (1024 MPI ranks,
// NPB classes A/B, 100k SA iterations) and expect a long run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/figures"
	"repro/internal/hsgraph"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1, 5, 6, 7, 8, 9, 10, 11, ablation, resilience, convergence or all")
		n       = flag.Int("n", 0, "order override for figs 5-8")
		r       = flag.Int("r", 0, "radix override for figs 5-8")
		paper   = flag.Bool("paper", false, "paper-scale parameters (slow)")
		ranks   = flag.Int("ranks", 0, "MPI ranks for figs 9a/10a/11a (0 = default)")
		iters   = flag.Int("iters", 0, "SA iterations (0 = default)")
		seed    = flag.Uint64("seed", 1, "random seed")
		benches = flag.String("benchmarks", "", "comma-separated NPB subset for the performance panels")
		asJSON  = flag.Bool("json", false, "emit JSON instead of text tables (figs 5 and 7)")
		workers = flag.Int("workers", 0, "h-ASPL evaluation shard workers per SA run (0 = serial; figures already parallelise across runs)")
	)
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.ExitIfVersion("orpfigures", version)

	o := figures.Options{Seed: *seed}
	if *paper {
		o = figures.PaperScale()
		o.Seed = *seed
	}
	if *ranks > 0 {
		o.Ranks = *ranks
	}
	if *iters > 0 {
		o.SAIterations = *iters
	}
	if *benches != "" {
		o.Benchmarks = strings.Split(*benches, ",")
	}
	if *workers > 0 {
		o.Workers = *workers
	}

	run := func(id string, f func() error) {
		if *fig != "all" && *fig != id {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "orpfigures: fig %s: %v\n", id, err)
			os.Exit(1)
		}
	}

	run("1", func() error {
		g, err := figures.Fig1()
		if err != nil {
			return err
		}
		met := g.Evaluate()
		fmt.Printf("# fig1: example host-switch graph (n=16, m=4, r=6)\n")
		fmt.Printf("h-ASPL %.4f, diameter %d, l(h0,h15) = %d\n\n", met.HASPL, met.Diameter, g.HostDistance(0, 15))
		return hsgraph.WriteDOT(os.Stdout, g, true)
	})
	run("5", func() error {
		ns := []int{128, 256, 512, 1024}
		rs := []int{12, 24}
		if *n > 0 {
			ns = []int{*n}
		}
		if *r > 0 {
			rs = []int{*r}
		}
		if !*paper && *n == 0 {
			ns = []int{128, 256} // reduced default sweep
		}
		for _, nn := range ns {
			for _, rr := range rs {
				f, err := figures.Fig5(nn, rr, o)
				if err != nil {
					return err
				}
				if *asJSON {
					if err := f.WriteJSON(os.Stdout); err != nil {
						return err
					}
				} else {
					fmt.Println(f.Format())
				}
			}
		}
		return nil
	})
	run("6", func() error {
		cases := [][2]int{{128, 24}, {1024, 12}, {1024, 24}}
		if *n > 0 && *r > 0 {
			cases = [][2]int{{*n, *r}}
		} else if !*paper {
			cases = [][2]int{{128, 24}, {256, 12}}
		}
		for _, c := range cases {
			h, _, err := figures.Fig6(c[0], c[1], o)
			if err != nil {
				return err
			}
			fmt.Println(h.Format())
		}
		return nil
	})
	run("7", func() error {
		nn, rr := 1024, 24
		if *n > 0 {
			nn = *n
		}
		if *r > 0 {
			rr = *r
		}
		f := figures.Fig7(nn, rr)
		if *asJSON {
			return f.WriteJSON(os.Stdout)
		}
		fmt.Println(f.Format())
		return nil
	})
	run("8", func() error {
		nn, rr := 1024, 24
		if !*paper {
			nn = 256
		}
		if *n > 0 {
			nn = *n
		}
		if *r > 0 {
			rr = *r
		}
		h, g, err := figures.Fig8(nn, rr, o)
		if err != nil {
			return err
		}
		fmt.Println(h.Format())
		fmt.Printf("switches with no hosts: %d / %d (%.1f%%)\n\n",
			h.Counts[0], g.Switches(), 100*float64(h.Counts[0])/float64(g.Switches()))
		return nil
	})
	for id, kind := range map[string]string{"9": "torus", "10": "dragonfly", "11": "fattree"} {
		id, kind := id, kind
		run(id, func() error { return comparison(kind, o) })
	}
	run("ablation", func() error { return ablations(o) })
	run("resilience", func() error { return resilience(o) })
	run("convergence", func() error {
		// Same (n, m, r) grid as the move-set ablation; the figure shows how
		// fast each neighbourhood converges rather than only where it lands.
		f, err := figures.Convergence(128, 30, 12, o)
		if err != nil {
			return err
		}
		if *asJSON {
			return f.WriteJSON(os.Stdout)
		}
		fmt.Println(f.Format())
		return nil
	})
}

// resilience prints the beyond-the-paper degradation sweep: proposed vs
// the paper's conventional baselines under random link failures.
func resilience(o figures.Options) error {
	ro := figures.ResilienceOptions{}
	if o.SAIterations < 100000 { // reduced scale: fewer trials per point
		ro.Trials = 8
	}
	stretch, reach, err := figures.Resilience(ro, o)
	if err != nil {
		return err
	}
	fmt.Println(stretch.Format())
	fmt.Println(reach.Format())
	return nil
}

// ablations prints the beyond-the-paper design-choice studies.
func ablations(o figures.Options) error {
	n, r := 128, 12
	m := 30
	moves, err := figures.AblationMoves(n, m, r, o)
	if err != nil {
		return err
	}
	fmt.Printf("# move sets (n=%d m=%d r=%d): final h-ASPL\n%v\n\n", n, m, r, moves)
	scheds, err := figures.AblationSchedules(n, m, r, o)
	if err != nil {
		return err
	}
	fmt.Printf("# cooling schedules: final h-ASPL\n%v\n\n", scheds)
	placement, err := figures.AblationPlacement("MG", o)
	if err != nil {
		return err
	}
	fmt.Printf("# host placement (MG, simulated seconds)\n%v\n\n", placement)
	tie, err := figures.AblationTieBreak("CG", o)
	if err != nil {
		return err
	}
	fmt.Printf("# routing tie-break (CG, simulated seconds)\n%v\n\n", tie)
	colls, err := figures.AblationCollectives(o)
	if err != nil {
		return err
	}
	fmt.Printf("# collective algorithms (simulated seconds)\n%v\n\n", colls)
	attach, err := figures.AblationAttachment("torus", "MG", o)
	if err != nil {
		return err
	}
	fmt.Printf("# torus host attachment (MG, simulated seconds)\n%v\n", attach)
	return nil
}

func comparison(kind string, o figures.Options) error {
	c, err := figures.BuildComparison(kind, o)
	if err != nil {
		return err
	}
	fmt.Printf("=== %s vs proposed: baseline m=%d, proposed m=%d (%.0f%% fewer switches) ===\n\n",
		kind, c.Baseline.Switches(), c.Proposed.Switches(),
		100*(1-float64(c.Proposed.Switches())/float64(c.Baseline.Switches())))

	perf, err := c.Performance(o)
	if err != nil {
		return err
	}
	fmt.Println(perf.Format())
	labels := o.Benchmarks
	if len(labels) == 0 {
		labels = []string{"EP", "IS", "FT", "CG", "MG", "LU", "BT", "SP"}
	}
	fmt.Printf("benchmark labels: %v\n\n", labels)

	bw, err := c.Bandwidth(o)
	if err != nil {
		return err
	}
	fmt.Println(bw.Format())

	pw, err := c.Power(o)
	if err != nil {
		return err
	}
	fmt.Println(pw.Format())

	ct, err := c.Cost(o)
	if err != nil {
		return err
	}
	fmt.Println(ct.Format())
	fmt.Println(c.CostBreakdown().Format())
	return nil
}
