package hsgraph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The text format is line-oriented:
//
//	hsgraph <n> <m> <r>
//	host <h> <s>        (one per host, in any order)
//	link <s1> <s2>      (one per switch-switch edge)
//
// Lines starting with '#' and blank lines are ignored. The format is a
// host-switch-aware variant of the Graph Golf edge-list files.

// Write serialises g in the text format. Output is canonical: hosts in
// increasing order, links sorted lexicographically.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "hsgraph %d %d %d\n", g.n, len(g.adj), g.r)
	for h := 0; h < g.n; h++ {
		fmt.Fprintf(bw, "host %d %d\n", h, g.hostOf[h])
	}
	links := append([][2]int32(nil), g.edges...)
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	for _, e := range links {
		fmt.Fprintf(bw, "link %d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// MaxReadDim caps the host and switch counts Read accepts. A one-line
// header sizes every per-host and per-switch array, so without a cap a
// hostile (or fuzzed) input of a few bytes could demand gigabytes before
// any structural check runs. 2^20 comfortably covers Graph Golf-scale
// instances (the competition tops out at 10^6 vertices).
const MaxReadDim = 1 << 20

// Read parses a graph in the text format. The returned graph has been
// structurally checked (ports, duplicates) but not connectivity-validated;
// call Validate for the full check.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	var v [3]int // a directive's integer fields
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
			if len(fields) != 4 {
				return nil, fmt.Errorf("hsgraph: line %d: malformed header", lineNo)
			}
			if err := scanInts(line, fields, "hsgraph %d %d %d", v[:3]); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
			n, m, rr := v[0], v[1], v[2]
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
			if err := scanInts(line, fields, "host %d %d", v[:2]); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
			if err := g.AttachHost(v[0], v[1]); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
		case "link":
			if g == nil {
				return nil, fmt.Errorf("hsgraph: line %d: link before header", lineNo)
			}
			if err := scanInts(line, fields, "link %d %d", v[:2]); err != nil {
				return nil, fmt.Errorf("hsgraph: line %d: %v", lineNo, err)
			}
			if err := g.Connect(v[0], v[1]); err != nil {
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

// scanInts reads the integer fields of a directive line into out. The
// usual line — the directive and exactly len(out) fields, each a plain
// decimal that fits an int — is converted by strconv, to the same values
// fmt.Sscanf would read. Any other line goes to fmt.Sscanf with the
// directive's format, which defines the accepted language (it takes a
// line whose last integer runs into other text, such as "host 0 0x")
// and words the errors.
func scanInts(line string, fields []string, format string, out []int) error {
	if len(fields) == len(out)+1 {
		ok := true
		for i, f := range fields[1:] {
			x, err := strconv.Atoi(f)
			if err != nil {
				ok = false
				break
			}
			out[i] = x
		}
		if ok {
			return nil
		}
	}
	var vals [3]int
	args := make([]any, len(out))
	for i := range out {
		args[i] = &vals[i]
	}
	if _, err := fmt.Sscanf(line, format, args...); err != nil {
		return err
	}
	copy(out, vals[:])
	return nil
}

// Equal reports whether two graphs are identical as labelled graphs:
// same parameters, same host attachments, same edge set.
func Equal(a, b *Graph) bool {
	if a.n != b.n || a.r != b.r || len(a.adj) != len(b.adj) || len(a.edges) != len(b.edges) {
		return false
	}
	for h := 0; h < a.n; h++ {
		if a.hostOf[h] != b.hostOf[h] {
			return false
		}
	}
	for k := range a.posInList {
		if _, ok := b.posInList[k]; !ok {
			return false
		}
	}
	return true
}
