// Package mulini implements the Mulini code generator, the paper's core
// automation contribution (§II). From a TBL experiment specification and
// a CIM/MOF resource model it generates everything a benchmark run needs:
// deployment scripts (install/configure/ignite/stop per service), the
// vendor configuration files scattered across package directories
// (workers2.properties, the C-JDBC RAIDb-1 controller XML, monitor
// properties), workload-driver parameter files, and per-host system
// monitor launchers. Artifacts are collected in a Bundle whose line
// counts reproduce the paper's Tables 3–5.
package mulini

import (
	"fmt"
	"sort"
	"strings"
)

// ArtifactKind classifies generated files.
type ArtifactKind int

// Artifact kinds: scripts are executable deployment code, configs are
// vendor configuration files Mulini modifies, data are parameter files
// for the workload driver and monitors.
const (
	Script ArtifactKind = iota
	Config
	Data
)

// String names the kind.
func (k ArtifactKind) String() string {
	switch k {
	case Script:
		return "script"
	case Config:
		return "config"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Artifact is one generated file.
type Artifact struct {
	// Path is the artifact's name within the bundle, e.g.
	// "TOMCAT1_install.sh".
	Path string
	// Kind classifies the artifact.
	Kind ArtifactKind
	// Comment is a one-line description, mirroring the paper's Tables 4–5.
	Comment string
	// Content is the file body.
	Content string
}

// Lines reports the artifact's line count (trailing newline not counted
// as an extra line).
func (a *Artifact) Lines() int {
	if a.Content == "" {
		return 0
	}
	n := strings.Count(a.Content, "\n")
	if !strings.HasSuffix(a.Content, "\n") {
		n++
	}
	return n
}

// Bundle is an ordered collection of generated artifacts.
type Bundle struct {
	artifacts map[string]*Artifact
	order     []string
}

// NewBundle creates an empty bundle.
func NewBundle() *Bundle {
	return &Bundle{artifacts: map[string]*Artifact{}}
}

// Add registers an artifact; duplicate paths are an error (the generator
// must not silently overwrite its own output).
func (b *Bundle) Add(a Artifact) error {
	if a.Path == "" {
		return fmt.Errorf("mulini: artifact needs a path")
	}
	if _, dup := b.artifacts[a.Path]; dup {
		return fmt.Errorf("mulini: duplicate artifact %q", a.Path)
	}
	copy := a
	b.artifacts[a.Path] = &copy
	b.order = append(b.order, a.Path)
	return nil
}

// Get returns an artifact by path.
func (b *Bundle) Get(path string) (*Artifact, bool) {
	a, ok := b.artifacts[path]
	return a, ok
}

// Paths lists artifact paths in generation order.
func (b *Bundle) Paths() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Len reports the number of artifacts.
func (b *Bundle) Len() int { return len(b.order) }

// ByKind lists artifacts of one kind in generation order.
func (b *Bundle) ByKind(kind ArtifactKind) []*Artifact {
	var out []*Artifact
	for _, p := range b.order {
		if a := b.artifacts[p]; a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

// TotalLines sums line counts, optionally filtered by kind (pass -1 for
// all artifacts).
func (b *Bundle) TotalLines(kind ArtifactKind) int {
	n := 0
	for _, a := range b.artifacts {
		if kind < 0 || a.Kind == kind {
			n += a.Lines()
		}
	}
	return n
}

// Summary renders a sorted path → line-count listing for reports.
func (b *Bundle) Summary() string {
	paths := b.Paths()
	sort.Strings(paths)
	var sb strings.Builder
	for _, p := range paths {
		a := b.artifacts[p]
		fmt.Fprintf(&sb, "%-44s %6d lines  %-6s %s\n", p, a.Lines(), a.Kind, a.Comment)
	}
	return sb.String()
}
