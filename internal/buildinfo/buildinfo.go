// Package buildinfo reads the binary's build identity once from
// runtime/debug.ReadBuildInfo and serves it to every surface that
// reports it: the squid_build_info gauge on /metrics, the version block
// of GET /v1/stats, the startup banner of the commands, and the
// benchmark's environment block. One source, so the surfaces can never
// disagree.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Info is the binary's build identity. Fields may be empty when the
// binary was built outside a VCS checkout (e.g. go test binaries):
// consumers render what is present.
type Info struct {
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Version is the main module's version: "(devel)" for source
	// builds, a tag for released module builds.
	Version string `json:"version"`
	// Revision is the VCS commit hash, when stamped.
	Revision string `json:"revision,omitempty"`
	// Modified reports a dirty working tree at build time.
	Modified bool `json:"modified,omitempty"`
}

var (
	once   sync.Once
	cached Info
)

// Get returns the build identity (computed once, then cached).
func Get() Info {
	once.Do(func() {
		cached = Info{GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		cached.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cached.Revision = s.Value
			case "vcs.modified":
				cached.Modified = s.Value == "true"
			}
		}
	})
	return cached
}

// String renders a one-line banner, e.g.
// "squid (devel) rev 1a2b3c4d5e6f (go1.22.1)".
func (i Info) String() string {
	s := "squid"
	if i.Version != "" {
		s += " " + i.Version
	}
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if i.Modified {
			s += "+dirty"
		}
	}
	return fmt.Sprintf("%s (%s)", s, i.GoVersion)
}
