package hsgraph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rnd := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		n := 6 + rnd.Intn(40)
		m := 2 + rnd.Intn(10)
		r := 5 + rnd.Intn(10)
		if !Feasible(n, m, r) {
			continue
		}
		g, err := RandomConnected(n, m, r, rnd)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v\n", err)
		}
		if !Equal(g, got) {
			t.Fatalf("round trip changed graph (trial %d)", trial)
		}
	}
}

func TestWriteIsCanonical(t *testing.T) {
	// Two structurally equal graphs built in different edge orders must
	// serialise identically.
	build := func(order [][2]int) *Graph {
		g := New(2, 3, 4)
		if err := g.AttachHost(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.AttachHost(1, 2); err != nil {
			t.Fatal(err)
		}
		for _, e := range order {
			if err := g.Connect(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	a := build([][2]int{{0, 1}, {1, 2}, {0, 2}})
	b := build([][2]int{{2, 0}, {2, 1}, {1, 0}})
	var bufA, bufB bytes.Buffer
	if err := Write(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Fatalf("serialisations differ:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no header":      "host 0 0\n",
		"double header":  "hsgraph 2 2 3\nhsgraph 2 2 3\n",
		"bad header":     "hsgraph 2 2\n",
		"negative":       "hsgraph -1 2 3\n",
		"unknown verb":   "hsgraph 2 2 3\nfrob 1 2\n",
		"host range":     "hsgraph 2 2 3\nhost 5 0\n",
		"switch range":   "hsgraph 2 2 3\nhost 0 9\n",
		"duplicate host": "hsgraph 2 2 3\nhost 0 0\nhost 0 1\n",
		"self loop":      "hsgraph 2 2 3\nlink 1 1\n",
		"duplicate link": "hsgraph 2 2 3\nlink 0 1\nlink 1 0\n",
		"radix overflow": "hsgraph 3 2 2\nhost 0 0\nhost 1 0\nhost 2 1\nlink 0 1\n",
		"garbage host":   "hsgraph 2 2 3\nhost x 0\n",
		"garbage link":   "hsgraph 2 2 3\nlink 0 y\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted malformed input", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nhsgraph 2 2 3\n  \nhost 0 0\nhost 1 1\n# another\nlink 0 1\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.HostDistance(0, 1) != 3 {
		t.Fatal("parsed graph has wrong structure")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	g1, err := Ring(8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	g2 := g1.Clone()
	if !Equal(g1, g2) {
		t.Fatal("clones unequal")
	}
	if err := g2.Disconnect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g2.Connect(0, 2); err != nil {
		t.Fatal(err)
	}
	if Equal(g1, g2) {
		t.Fatal("different edge sets reported equal")
	}
	g3 := g1.Clone()
	if err := g3.MoveHost(0, 1); err != nil {
		t.Fatal(err)
	}
	if Equal(g1, g3) {
		t.Fatal("different attachments reported equal")
	}
}

// readSscanf is Read as it was before its strconv fast path: every
// directive line scanned by fmt.Sscanf. It is the oracle that defines the
// accepted language; Read must accept and reject exactly the same inputs
// and build Equal graphs.
func readSscanf(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "hsgraph":
			if g != nil {
				return nil, fmt.Errorf("hsgraph: line %d: duplicate header", lineNo)
			}
			var n, m, rr int
			if len(fields) != 4 {
				return nil, fmt.Errorf("hsgraph: line %d: malformed header", lineNo)
			}
			if _, err := fmt.Sscanf(line, "hsgraph %d %d %d", &n, &m, &rr); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
			if n < 1 || m < 1 || rr < 1 {
				return nil, fmt.Errorf("hsgraph: line %d: invalid header values n=%d m=%d r=%d", lineNo, n, m, rr)
			}
			if n > MaxReadDim || m > MaxReadDim {
				return nil, fmt.Errorf("hsgraph: line %d: header n=%d m=%d exceeds limit %d", lineNo, n, m, MaxReadDim)
			}
			g = New(n, m, rr)
		case "host":
			if g == nil {
				return nil, fmt.Errorf("hsgraph: line %d: host before header", lineNo)
			}
			var h, s int
			if _, err := fmt.Sscanf(line, "host %d %d", &h, &s); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
			if err := g.AttachHost(h, s); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
		case "link":
			if g == nil {
				return nil, fmt.Errorf("hsgraph: line %d: link before header", lineNo)
			}
			var a, b int
			if _, err := fmt.Sscanf(line, "link %d %d", &a, &b); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
			if err := g.Connect(a, b); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("hsgraph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("hsgraph: empty input")
	}
	return g, nil
}

// checkReadMatchesOracle compares Read with readSscanf on one input.
func checkReadMatchesOracle(t *testing.T, in string) {
	t.Helper()
	want, werr := readSscanf(strings.NewReader(in))
	got, gerr := Read(strings.NewReader(in))
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%q: Read err %v, oracle err %v", in, gerr, werr)
	case werr != nil:
		if gerr.Error() != werr.Error() {
			t.Fatalf("%q: Read says %q, oracle says %q", in, gerr, werr)
		}
	case !Equal(got, want):
		t.Fatalf("%q: Read and the oracle built different graphs", in)
	}
}

func TestReadMatchesSscanfOracle(t *testing.T) {
	head := "hsgraph 3 3 4\n"
	lines := []string{
		"host 0 0", "host\t0\t0", "host  1   2", "host 0 0 trailing", "host 0 0x", "host 0x1 0",
		"host +1 -0", "host 1+2", "host 0+1 2", "host 1-2 3", "host 01 002", "host 0", "host",
		"host 0 0 0", "host 1_0 0", "host 9223372036854775808 0", "host -9223372036854775809 0",
		"host 0\v1", "host 0\f1", "host 0\r1", "host 0\u00a01", "host 0\u20281", "host 0\u00851",
		"host\u00a00 1", "host 0 1\u00a0x", "host ０ 1", "host 0 \xff", "host 0 1\xff",
		"link 0 1", "link 0 1 # c", "link 1 0x", "link +0 +2", "link 0\t\t2",
		"hsgraph 3 3 4", "hsgraph 3 3 4x", "hsgraph +3 3 4",
	}
	checkReadMatchesOracle(t, "")
	for _, l := range lines {
		checkReadMatchesOracle(t, head+l+"\n")
		checkReadMatchesOracle(t, head+"host 0 0\nhost 1 1\n"+l+"\nlink 0 1\n")
		checkReadMatchesOracle(t, strings.Replace(head, "hsgraph 3 3 4", l, 1))
	}
	g, err := RandomConnected(1024, 195, 15, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	checkReadMatchesOracle(t, buf.String())
}

// FuzzReadEdgeList fuzzes the Graph Golf-style edge-list parser (the
// repository's host-switch-aware text format) against three failure
// modes: crashes (panics, unbounded allocation from hostile headers),
// drift from the fmt.Sscanf oracle (readSscanf) in what it accepts,
// rejects or builds, and silent acceptance of invalid graphs — anything
// the parser lets through must either satisfy the full structural
// Validate or be flagged by it, and every accepted-and-valid graph must
// round-trip through the canonical writer unchanged.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"hsgraph 2 2 3\nhost 0 0\nhost 1 1\nlink 0 1\n",
		"# comment\n\nhsgraph 4 2 5\nhost 0 0\nhost 1 0\nhost 2 1\nhost 3 1\nlink 0 1\n",
		"hsgraph 1 1 1\nhost 0 0\n",
		"hsgraph 3 3 4\nhost 0 0\nhost 1 1\nhost 2 2\n", // disconnected
		"hsgraph 2 2 3\nhost 0 0\n",                     // host 1 unattached
		"hsgraph 999999999 999999999 5\n",               // hostile header
		"host 0 0\n",
		"hsgraph 2 2 3\nhsgraph 2 2 3\n",
		"hsgraph 2 2\n",
		"hsgraph -1 2 3\n",
		"hsgraph 2 2 3\nfrob 1 2\n",
		"hsgraph 2 2 3\nhost 5 0\n",
		"hsgraph 2 2 3\nlink 1 1\n",
		"hsgraph 2 2 3\nlink 0 1\nlink 1 0\n",
		"hsgraph 3 2 2\nhost 0 0\nhost 1 0\nhost 2 1\nlink 0 1\n",
		"hsgraph 2 2 3\nhost x 0\n",
		"hsgraph 2 2 3\nlink 0 y\n",
		"hsgraph 2 2 3\nhost 0 0 trailing\n",
		"hsgraph 2 2 3\nhost 0 0x\nhost +1 1\nlink 0\t1\n",
		"hsgraph 2 2 3\nhost 1+1 0\n",
		"hsgraph 2 2 3\nhost 0\u00a00\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkReadMatchesOracle(t, in)
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return // rejected input: nothing more to check
		}
		if g.Order() < 1 || g.Switches() < 1 || g.Radix() < 1 {
			t.Fatalf("Read accepted a graph with senseless parameters: %v", g)
		}
		if g.Order() > MaxReadDim || g.Switches() > MaxReadDim {
			t.Fatalf("Read accepted dimensions beyond MaxReadDim: %v", g)
		}
		// Validate must catch whatever the parser let through; if it
		// passes, the graph really is structurally sound and must survive
		// a canonical write/read round trip and a metrics evaluation.
		if err := g.Validate(); err != nil {
			return // flagged: the parser's leniency was caught downstream
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write failed on validated graph: %v", err)
		}
		g2, err := Read(&buf)
		if err != nil {
			t.Fatalf("reparse of canonical output failed: %v", err)
		}
		if !Equal(g, g2) {
			t.Fatal("write/read round trip changed the graph")
		}
		if fast, slow := g.Evaluate(), g.EvaluateSlow(); fast != slow {
			t.Fatalf("parsed graph evaluates inconsistently: %+v vs %+v", fast, slow)
		}
	})
}
