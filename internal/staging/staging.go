// Package staging statically validates Mulini-generated deployment
// bundles before they run. The Elba project's original application was
// "validation of staging deployment scripts" (paper §VI); this package is
// that idea for our bundles: it checks the steps mulini.Walk reads from
// the generated scripts without executing them and reports structural
// defects — malformed lines, dangling script or artifact references,
// lifecycle violations (start before install, configure while running),
// leaked allocations, unreachable artifacts — with script/line
// provenance.
//
// The deploy engine would also surface most of these, but only at the
// first failing step of an actual run; staging finds every issue at once,
// cheaply, which is what made script validation worth a research project.
package staging

import (
	"fmt"
	"sort"

	"elba/internal/cluster"
	"elba/internal/mulini"
)

// Severity classifies an issue.
type Severity int

// Issue severities. Errors would abort a deployment; warnings indicate
// waste or smells (unused artifacts, redundant steps).
const (
	Warning Severity = iota
	Error
)

// String names the severity.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Issue is one validation finding.
type Issue struct {
	// Severity classifies the finding.
	Severity Severity
	// Script and Line locate it ("" for bundle-level findings).
	Script string
	Line   int
	// Message describes the defect.
	Message string
}

// String renders the issue compiler-style.
func (i Issue) String() string {
	if i.Script == "" {
		return fmt.Sprintf("%s: %s", i.Severity, i.Message)
	}
	return fmt.Sprintf("%s:%d: %s: %s", i.Script, i.Line, i.Severity, i.Message)
}

// validator checks steps accumulating simulated state.
type validator struct {
	bundle *mulini.Bundle
	issues []Issue

	allocated map[string]bool
	services  map[string]map[string]cluster.ServiceState // role → pkg → state
	visited   map[string]bool                            // scripts reached from the entry
	usedArts  map[string]bool                            // artifacts referenced by pushes
}

// Validate statically checks a bundle starting from entry (normally
// "run.sh"), then checks teardown.sh if present, and finally reports
// bundle-level findings (unreferenced artifacts, unreachable scripts).
// Issues are ordered errors-first, then by location, then by message.
func Validate(b *mulini.Bundle, entry string) []Issue {
	v := &validator{
		bundle:    b,
		allocated: map[string]bool{},
		services:  map[string]map[string]cluster.ServiceState{},
		visited:   map[string]bool{},
		usedArts:  map[string]bool{},
	}
	if _, ok := b.Get(entry); !ok {
		return []Issue{{Severity: Error, Message: fmt.Sprintf("bundle has no entry script %q", entry)}}
	}
	v.walk(entry)
	// Everything ignited by run.sh should be running at its end.
	for role, pkgs := range v.services {
		for pkg, st := range pkgs {
			if st != cluster.Running {
				v.errf("", 0, "after %s: %s on %s is %s, expected running", entry, pkg, role, st)
			}
		}
	}
	if _, ok := b.Get("teardown.sh"); ok {
		v.walk("teardown.sh")
		for role := range v.allocated {
			if v.allocated[role] {
				v.errf("", 0, "after teardown.sh: role %s still allocated", role)
			}
		}
		for role, pkgs := range v.services {
			for pkg, st := range pkgs {
				if st == cluster.Running {
					v.errf("", 0, "after teardown.sh: %s on %s still running", pkg, role)
				}
			}
		}
	}
	// Bundle-level checks.
	for _, path := range b.Paths() {
		a, _ := b.Get(path)
		switch a.Kind {
		case mulini.Script:
			if !v.visited[path] {
				v.warnf("", 0, "script %s is unreachable from %s/teardown.sh", path, entry)
			}
		case mulini.Config, mulini.Data:
			if !v.usedArts[path] {
				v.warnf("", 0, "artifact %s is never pushed to any node", path)
			}
		}
	}
	sort.SliceStable(v.issues, func(i, j int) bool {
		if v.issues[i].Severity != v.issues[j].Severity {
			return v.issues[i].Severity > v.issues[j].Severity
		}
		if v.issues[i].Script != v.issues[j].Script {
			return v.issues[i].Script < v.issues[j].Script
		}
		if v.issues[i].Line != v.issues[j].Line {
			return v.issues[i].Line < v.issues[j].Line
		}
		return v.issues[i].Message < v.issues[j].Message
	})
	return v.issues
}

func (v *validator) errf(script string, line int, format string, args ...interface{}) {
	v.issues = append(v.issues, Issue{Severity: Error, Script: script, Line: line,
		Message: fmt.Sprintf(format, args...)})
}

func (v *validator) warnf(script string, line int, format string, args ...interface{}) {
	v.issues = append(v.issues, Issue{Severity: Warning, Script: script, Line: line,
		Message: fmt.Sprintf(format, args...)})
}

// walk checks every step reached from entry.
func (v *validator) walk(entry string) {
	v.visited[entry] = true
	if err := mulini.Walk(v.bundle, entry, v.check); err != nil {
		v.errf("", 0, "%v", err) // entry is not a script; check never fails
	}
}

// check records one step's effect on the simulated state, and an issue
// for each defect it shows. It never stops the walk.
func (v *validator) check(s mulini.Step) error {
	if s.Err != nil {
		v.errf(s.Script, s.Line, "%v", s.Err)
		return nil
	}
	if s.Call != "" {
		v.visited[s.Call] = true
		return nil
	}
	switch s.Verb {
	case "allocate":
		if v.allocated[s.Role] {
			v.errf(s.Script, s.Line, "role %s allocated twice", s.Role)
		}
		v.allocated[s.Role] = true
	case "release":
		if !v.allocated[s.Role] {
			v.errf(s.Script, s.Line, "release of unallocated role %s", s.Role)
		}
		v.allocated[s.Role] = false
	case "push":
		if _, ok := v.bundle.Get(s.Artifact); !ok {
			v.errf(s.Script, s.Line, "push references missing artifact %q", s.Artifact)
			return nil
		}
		v.usedArts[s.Artifact] = true
		v.checkAllocated(s)
	default: // install, configure, start or stop
		v.checkAllocated(s)
		pkg := s.Package
		if s.Verb == "start" || s.Verb == "stop" {
			pkg = s.Service
		}
		svcs := v.services[s.Role]
		if svcs == nil {
			svcs = map[string]cluster.ServiceState{}
			v.services[s.Role] = svcs
		}
		next, err := svcs[pkg].Next(s.Verb, pkg)
		if err != nil {
			v.errf(s.Script, s.Line, "%s: %v", s.Role, err)
		}
		svcs[pkg] = next
	}
	return nil
}

func (v *validator) checkAllocated(s mulini.Step) {
	if !v.allocated[s.Role] {
		v.errf(s.Script, s.Line, "%s on unallocated role %s", s.Verb, s.Role)
	}
}

// Errors filters the issues to errors only.
func Errors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == Error {
			out = append(out, i)
		}
	}
	return out
}
