package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/stats"
)

// benchSpec is the part of BENCHMARK.json --compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords loads the untraced result records (--out files) in dir,
// keyed by workload, then seed.
func readRecords(dir string) (map[string]map[uint64]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[uint64]*record)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Trace || rec.Workload == "" {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[uint64]*record)
		}
		out[rec.Workload][rec.Seed] = &rec
	}
	return out, nil
}

// verdict applies the rules for comparing a change with its parent on
// one noisy machine: a regression is a median worse than the parent's by more than the
// bound; a gain needs the change to win at least nine tenths of the
// seed-matched pairs (ties count for neither) and the medians to differ
// by more than the parent's quartile spread; and where the parent's own
// spread is wider than the bound, the metric is unresolved unless every
// run of the change reads better than every run of the parent.
func verdict(base, head []float64, pairs [][2]float64, lowerBetter bool, bound float64) (string, float64) {
	bm, hm := stats.Percentile(base, 50), stats.Percentile(head, 50)
	iqr := stats.Percentile(base, 75) - stats.Percentile(base, 25)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	worse := 0.0
	if bm != 0 {
		worse = sign * (hm - bm) / math.Abs(bm)
	}
	better := func(h, b float64) bool { return sign*(h-b) < 0 }
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	wins := 0
	for _, pr := range pairs {
		if better(pr[1], pr[0]) {
			wins++
		}
	}
	switch {
	case bm != 0 && iqr/math.Abs(bm) > bound && !allBetter:
		return "unresolved", worse
	case len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(hm-bm) > iqr && better(hm, bm):
		return "improved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareDirs prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the change against the bound and a verdict. It
// reports whether anything regressed.
func compareDirs(baseDir, headDir, specPath string, w io.Writer) (bool, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(baseDir)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headDir)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range base {
		if head[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced records in both %s and %s", baseDir, headDir)
	}
	regressed := false
	fmt.Fprintf(w, "%-8s %-17s %11s %23s %11s %23s %8s %6s  %s\n",
		"workload", "metric", "base p50", "base q1..q3", "head p50", "head q1..q3", "worse", "bound", "verdict")
	for _, name := range names {
		bs, hs := base[name], head[name]
		same, matched := 0, 0
		for seed, hr := range hs {
			if br, ok := bs[seed]; ok {
				matched++
				if br.Digest == hr.Digest {
					same++
				}
			}
		}
		for _, m := range spec.EndToEnd {
			var bv, hv []float64
			var pairs [][2]float64
			for seed, br := range bs {
				bv = append(bv, br.Metrics[m.Name].Value)
				if hr, ok := hs[seed]; ok {
					pairs = append(pairs, [2]float64{br.Metrics[m.Name].Value, hr.Metrics[m.Name].Value})
				}
			}
			for _, hr := range hs {
				hv = append(hv, hr.Metrics[m.Name].Value)
			}
			v, worse := verdict(bv, hv, pairs, m.Better == "lower", m.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-8s %-17s %11.4g %11.4g..%-11.4g %11.4g %11.4g..%-11.4g %+7.1f%% %5.1f%%  %s\n",
				name, m.Name, stats.Percentile(bv, 50), stats.Percentile(bv, 25), stats.Percentile(bv, 75),
				stats.Percentile(hv, 50), stats.Percentile(hv, 25), stats.Percentile(hv, 75),
				100*worse, 100*m.Bound, v)
		}
		fmt.Fprintf(w, "%-8s results_digest equal on %d of %d seed-matched runs\n", name, same, matched)
	}
	return regressed, nil
}
