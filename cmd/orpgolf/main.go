// Command orpgolf solves order/degree problem (ODP) instances in the
// style of the Graph Golf competition the paper cites: given order N and
// degree D, search for an N-vertex D-regular graph with minimal average
// shortest path length, and read/write Graph Golf edge lists.
//
// Usage:
//
//	orpgolf -n 32 -d 5 -iters 50000 -o graph.edges   # solve
//	orpgolf -eval graph.edges                        # evaluate a file
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/odp"
	"repro/internal/opt"
)

func main() {
	var (
		n        = flag.Int("n", 32, "order: number of vertices")
		d        = flag.Int("d", 4, "degree")
		iters    = flag.Int("iters", 50000, "annealing iterations")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "evaluation shard workers (0 = GOMAXPROCS)")
		schedule = flag.String("schedule", "geometric", "geometric | linear | hillclimb")
		out      = flag.String("o", "", "write the edge list here (default stdout)")
		evalFile = flag.String("eval", "", "evaluate an existing edge-list file instead of solving")
		evalMode = flag.String("eval-mode", "exact", "evaluation mode: exact, incremental or symmetric (same result, increasing moves/s)")
		symmetry = flag.Int("symmetry", 0, "search only graphs closed under a cyclic group action of this order (0 = off; must divide n)")
	)
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.ExitIfVersion("orpgolf", version)

	if *evalFile != "" {
		f, err := os.Open(*evalFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		g, err := odp.ReadEdgeList(f, 0)
		if err != nil {
			fatal(err)
		}
		res, err := odp.Evaluate(g)
		if err != nil {
			fatal(err)
		}
		report(res)
		return
	}

	var sched opt.Schedule
	switch *schedule {
	case "geometric":
		sched = opt.Geometric
	case "linear":
		sched = opt.Linear
	case "hillclimb":
		sched = opt.HillClimb
	default:
		fmt.Fprintf(os.Stderr, "orpgolf: unknown schedule %q\n", *schedule)
		os.Exit(2)
	}
	eval, err := opt.ParseEvalMode(*evalMode)
	if err != nil {
		fatal(err)
	}
	res, err := odp.Solve(*n, *d, odp.Options{Iterations: *iters, Seed: *seed, Schedule: sched, Workers: *workers, Eval: eval, Symmetry: *symmetry})
	if err != nil {
		fatal(err)
	}
	report(res)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := odp.WriteEdgeList(w, res.Graph); err != nil {
		fatal(err)
	}
}

func report(res *odp.Result) {
	fmt.Fprintf(os.Stderr, "order     %d\n", res.Order)
	fmt.Fprintf(os.Stderr, "degree    %d\n", res.Degree)
	fmt.Fprintf(os.Stderr, "ASPL      %.6f (Moore bound %.6f, gap %.6f)\n", res.ASPL, res.LowerB, res.ASPLGap)
	fmt.Fprintf(os.Stderr, "diameter  %d\n", res.Diameter)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "orpgolf: %v\n", err)
	os.Exit(1)
}
