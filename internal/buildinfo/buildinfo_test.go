package buildinfo

import (
	"bytes"
	"runtime/debug"
	"strings"
	"testing"
)

func TestGetHasGoVersion(t *testing.T) {
	info := Get()
	if info.GoVersion == "" {
		t.Fatal("GoVersion must always be set")
	}
	// Test binaries are built from the module, so the module path is
	// recorded even when VCS stamps are not.
	if info.Module != "repro" {
		t.Fatalf("Module = %q, want repro", info.Module)
	}
}

func TestReadSyntheticVCS(t *testing.T) {
	bi := &debug.BuildInfo{
		GoVersion: "go1.22.0",
		Main:      debug.Module{Path: "repro", Version: "(devel)"},
		Settings: []debug.BuildSetting{
			{Key: "vcs.revision", Value: "abcdef0123456789abcdef"},
			{Key: "vcs.time", Value: "2026-08-05T00:00:00Z"},
			{Key: "vcs.modified", Value: "true"},
		},
	}
	info := read(bi, true)
	if info.Revision != "abcdef0123456789abcdef" || !info.Dirty || info.Time == "" {
		t.Fatalf("read missed VCS settings: %+v", info)
	}
	if got := info.ShortRevision(); got != "abcdef012345" {
		t.Fatalf("ShortRevision = %q", got)
	}
	s := info.String()
	for _, want := range []string{"repro", "(devel)", "go1.22.0", "rev abcdef012345", "(dirty)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestReadNilInfo(t *testing.T) {
	info := read(nil, false)
	if info.GoVersion == "" {
		t.Fatal("GoVersion must fall back to runtime.Version()")
	}
	if info.Module != "" || info.Revision != "" {
		t.Fatalf("nil build info must leave VCS fields empty: %+v", info)
	}
}

func TestFprintln(t *testing.T) {
	var buf bytes.Buffer
	Fprintln(&buf, "orpsolve")
	out := buf.String()
	if !strings.HasPrefix(out, "orpsolve: ") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("Fprintln output %q", out)
	}
}
