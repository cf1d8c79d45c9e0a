package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/hsgraph"
	"repro/internal/rng"
	"repro/internal/serve"
)

// verifier checks replies after the timed phase against the reference
// evaluator, EvaluateSlow. A spec's first reply is checked in full;
// every later reply for the same spec (a cache hit) must replay its
// bytes exactly.
type verifier struct {
	first map[string]json.RawMessage
	sym   int // symmetry order anneal results must have (0 = none)
}

func newVerifier(sym int) *verifier {
	return &verifier{first: make(map[string]json.RawMessage), sym: sym}
}

// check verifies o and records a failure in o.err.
func (v *verifier) check(o *op) {
	if o.err != nil {
		return
	}
	if first, ok := v.first[o.key]; ok {
		if !bytes.Equal(first, o.result) {
			o.err = fmt.Errorf("verify: reply for a known spec differs from its first reply")
		}
		return
	}
	var err error
	if o.spec.Type == serve.TypeEval {
		err = verifyEval(o.spec, o.result)
	} else {
		err = verifyAnneal(o.result, o.spec.N, o.spec.R, v.sym)
	}
	if err != nil {
		o.err = fmt.Errorf("verify: %w", err)
		return
	}
	v.first[o.key] = o.result
}

// specGraph is the graph an eval spec names.
func specGraph(spec serve.JobSpec) (*hsgraph.Graph, error) {
	if spec.Graph != "" {
		return hsgraph.Read(strings.NewReader(spec.Graph))
	}
	return hsgraph.RandomConnected(spec.N, spec.M, spec.R, rng.New(spec.GraphSeed))
}

// verifyEval checks an eval reply: its totalPath, h-ASPL and fingerprint
// must be those of the spec's graph under EvaluateSlow.
func verifyEval(spec serve.JobSpec, result []byte) error {
	var res serve.EvalResult
	if err := json.Unmarshal(result, &res); err != nil {
		return fmt.Errorf("eval result: %w", err)
	}
	g, err := specGraph(spec)
	if err != nil {
		return fmt.Errorf("rebuild input graph: %w", err)
	}
	want := g.EvaluateSlow()
	if res.Graph.TotalPath != want.TotalPath || res.Graph.HASPL != want.HASPL {
		return fmt.Errorf("eval reply totalPath=%d haspl=%v, reference %d %v",
			res.Graph.TotalPath, res.Graph.HASPL, want.TotalPath, want.HASPL)
	}
	if fp := g.Fingerprint().String(); res.Fingerprint != fp {
		return fmt.Errorf("eval reply fingerprint %s, input graph %s", res.Fingerprint, fp)
	}
	return nil
}

// verifyAnneal checks an anneal reply: graphText must parse, validate,
// have order n and radix r (and symmetry sym when sym > 1), and its
// reference h-ASPL and fingerprint must be the reported ones.
func verifyAnneal(result []byte, n, r, sym int) error {
	var res serve.AnnealResult
	if err := json.Unmarshal(result, &res); err != nil {
		return fmt.Errorf("anneal result: %w", err)
	}
	g, err := hsgraph.Read(strings.NewReader(res.GraphText))
	if err != nil {
		return fmt.Errorf("graphText: %w", err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graphText: %w", err)
	}
	if g.Order() != n || g.Radix() != r {
		return fmt.Errorf("graphText has n=%d r=%d, asked for n=%d r=%d", g.Order(), g.Radix(), n, r)
	}
	if sym > 1 {
		if err := hsgraph.VerifySymmetric(g, sym); err != nil {
			return err
		}
	}
	want := g.EvaluateSlow()
	if res.Graph.TotalPath != want.TotalPath || res.Graph.HASPL != want.HASPL {
		return fmt.Errorf("anneal reply totalPath=%d haspl=%v, reference %d %v",
			res.Graph.TotalPath, res.Graph.HASPL, want.TotalPath, want.HASPL)
	}
	if fp := g.Fingerprint().String(); res.Fingerprint != fp {
		return fmt.Errorf("anneal reply fingerprint %s, graphText %s", res.Fingerprint, fp)
	}
	return nil
}

// summary is the part of a result every reply type shares.
type summary struct {
	Fingerprint string `json:"fingerprint"`
	Graph       struct {
		Order int     `json:"order"`
		Radix int     `json:"radix"`
		HASPL float64 `json:"haspl"`
	} `json:"graph"`
	Anneal *struct {
		Accepted, Proposed, Iterations int
	} `json:"anneal"`
}

func summarize(o *op) (summary, bool) {
	var s summary
	if o.err != nil || json.Unmarshal(o.result, &s) != nil {
		return s, false
	}
	return s, true
}

// digest is SHA-256 over the result fingerprints of ops, in order; a
// failed op contributes a marker, so a failure changes the digest.
func digest(ops []*op) string {
	h := sha256.New()
	for _, o := range ops {
		s, ok := summarize(o)
		if !ok {
			s.Fingerprint = "failed"
		}
		fmt.Fprintf(h, "%s\n", s.Fingerprint)
	}
	return hex.EncodeToString(h.Sum(nil))
}
