// Package buildinfo exposes the build identity of the running binary —
// module path, VCS revision, dirtiness, Go version — read once from
// runtime/debug.ReadBuildInfo. Every surface that records "which build
// produced this" (the CLIs' -version flag, orpd's /healthz and run-store
// records, the obs JSONL event header) goes through this package so they
// can never disagree.
package buildinfo

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
)

// Info is the stamped build identity. Fields the build did not record
// (e.g. VCS data in `go test` binaries or bare `go run`) are empty.
type Info struct {
	// Module is the main module path ("repro").
	Module string `json:"module,omitempty"`
	// Version is the main module version; "(devel)" for local builds.
	Version string `json:"version,omitempty"`
	// GoVersion is the toolchain that built the binary, e.g. "go1.22.1".
	GoVersion string `json:"goVersion,omitempty"`
	// Revision is the VCS commit hash, when the build recorded one.
	Revision string `json:"revision,omitempty"`
	// Time is the commit time in RFC3339, when recorded.
	Time string `json:"time,omitempty"`
	// Dirty reports uncommitted changes at build time, when recorded.
	Dirty bool `json:"dirty,omitempty"`
}

var (
	once   sync.Once
	cached Info
)

// Get returns the build identity, resolving it on first call.
func Get() Info {
	once.Do(func() { cached = read(debug.ReadBuildInfo()) })
	return cached
}

// read extracts an Info from a debug.BuildInfo; split out so tests can
// feed synthetic build metadata.
func read(bi *debug.BuildInfo, ok bool) Info {
	info := Info{GoVersion: runtime.Version()}
	if !ok || bi == nil {
		return info
	}
	info.Module = bi.Main.Path
	info.Version = bi.Main.Version
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// ShortRevision is the first 12 characters of the revision hash, or the
// empty string when no revision was recorded.
func (i Info) ShortRevision() string {
	if len(i.Revision) > 12 {
		return i.Revision[:12]
	}
	return i.Revision
}

// String renders a one-line human-readable identity, the -version output
// of the CLIs: "repro (devel) go1.22.1 rev abc123def456 (dirty)".
func (i Info) String() string {
	s := i.Module
	if s == "" {
		s = "unknown-module"
	}
	if i.Version != "" {
		s += " " + i.Version
	}
	if i.GoVersion != "" {
		s += " " + i.GoVersion
	}
	if rev := i.ShortRevision(); rev != "" {
		s += " rev " + rev
		if i.Dirty {
			s += " (dirty)"
		}
	}
	return s
}

// Fprintln writes the identity for tool name to w, the shared body of
// every CLI's -version handler.
func Fprintln(w io.Writer, tool string) {
	fmt.Fprintf(w, "%s: %s\n", tool, Get())
}
