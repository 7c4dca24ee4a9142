package mulini

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// The elbactl protocol. The operative lines of a generated script are of
// two kinds:
//
//	bash <script>
//	elbactl <verb> --role <role> [--<flag> <value>]...
//
// A bash line runs another script of the bundle; an elbactl line acts on
// the node bound to a deployment role. Words are separated by spaces and
// tabs, and double quotes keep them inside a word. Every other line
// (comments, echo, set -e) is shell boilerplate that leaves the deployed
// system's logical state alone, as it would on a real testbed.

// Step is one operative line of a script.
type Step struct {
	// Script and Line locate the line (Line counts from 1).
	Script string
	Line   int
	// Call names the script a bash line runs; it is "" for an elbactl
	// command.
	Call string
	// Verb is an elbactl command's verb (allocate, release, install,
	// configure, push, start or stop), and Role the deployment role it
	// acts on.
	Verb, Role string
	// Type is allocate's node type ("" = any). Package is what install
	// and configure act on, Service what start and stop act on. File is
	// where a push writes the bundle artifact Artifact.
	Type, Package, Service, File, Artifact string
	// Err reports a malformed line, or a bash line whose script cannot
	// run; the fields above may then be partly set.
	Err error
}

// verbFlags lists the flags each elbactl verb requires besides --role.
var verbFlags = map[string][]string{
	"allocate":  nil,
	"release":   nil,
	"install":   {"package"},
	"configure": {"package"},
	"push":      {"file", "artifact"},
	"start":     {"service"},
	"stop":      {"service"},
}

// maxNesting bounds how deeply bash calls nest below the entry script.
const maxNesting = 16

// Walk runs a bundle's scripts in execution order from entry. It hands
// every operative line to visit as a Step and, once visit accepts a bash
// line, walks the script that line calls before going on. A malformed
// line, and a bash line whose script is missing, is not a script, is
// already running (a recursive call) or would nest more than 16 calls
// deep, reaches visit with Err set, and such a call is not followed.
// When visit returns an error, Walk stops and returns it prefixed with
// the script:line of the step and of every bash call on the way to it.
// Walk fails by itself only when entry is not a script of b.
func Walk(b *Bundle, entry string, visit func(Step) error) error {
	body, err := scriptBody(b, entry)
	if err != nil {
		return err
	}
	w := walker{bundle: b, visit: visit}
	return w.walk(entry, body, 0)
}

// scriptBody returns the content of the script at path.
func scriptBody(b *Bundle, path string) (string, error) {
	a, ok := b.Get(path)
	if !ok {
		return "", fmt.Errorf("missing script %q", path)
	}
	if a.Kind != Script {
		return "", fmt.Errorf("artifact %q is %s, not a script", path, a.Kind)
	}
	return a.Content, nil
}

type walker struct {
	bundle *Bundle
	visit  func(Step) error
	words  []string // reused by every elbactl line
	// stack holds the scripts being walked, the entry first: a walk at
	// depth d owns stack[:d+1].
	stack [maxNesting + 1]string
}

func (w *walker) walk(path, body string, depth int) error {
	w.stack[depth] = path
	for n := 1; body != ""; n++ {
		var line string
		line, body, _ = strings.Cut(body, "\n")
		s, ok := w.parse(line)
		if !ok {
			continue
		}
		s.Script, s.Line = path, n
		var callee string
		if s.Call != "" {
			switch {
			case slices.Contains(w.stack[:depth+1], s.Call):
				s.Err = fmt.Errorf("recursive script nesting at %q", s.Call)
			case depth == maxNesting:
				s.Err = fmt.Errorf("script nesting too deep at %q", s.Call)
			default:
				callee, s.Err = scriptBody(w.bundle, s.Call)
			}
		}
		err := w.visit(s)
		if err == nil && s.Call != "" && s.Err == nil {
			err = w.walk(s.Call, callee, depth+1)
		}
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, n, err)
		}
	}
	return nil
}

// parse reads one line of a script; ok is false for boilerplate.
func (w *walker) parse(line string) (s Step, ok bool) {
	line = strings.TrimSpace(line)
	if call, isCall := strings.CutPrefix(line, "bash "); isCall {
		s.Call = strings.TrimSpace(call)
		return s, true
	}
	if line != "elbactl" && !strings.HasPrefix(line, "elbactl ") {
		return s, false
	}
	w.words, s.Err = splitWords(w.words[:0], line)
	if s.Err == nil {
		s.Err = s.command(w.words)
	}
	return s, true
}

// command fills s from the words of an elbactl line and checks that the
// verb is known and carries --role and its required flags.
func (s *Step) command(words []string) error {
	if len(words) < 2 {
		return errors.New("elbactl line has no verb")
	}
	s.Verb = words[1]
	required, ok := verbFlags[s.Verb]
	if !ok {
		return fmt.Errorf("unknown elbactl verb %q", s.Verb)
	}
	for i := 2; i < len(words); i += 2 {
		name, ok := strings.CutPrefix(words[i], "--")
		if !ok {
			return fmt.Errorf("expected flag, found %q", words[i])
		}
		if i+1 == len(words) {
			return fmt.Errorf("flag --%s has no value", name)
		}
		if f := s.flag(name); f != nil {
			*f = words[i+1]
		}
	}
	if s.Role == "" {
		return fmt.Errorf("elbactl %s requires --role", s.Verb)
	}
	for _, name := range required {
		if *s.flag(name) == "" {
			return fmt.Errorf("elbactl %s requires --%s", s.Verb, name)
		}
	}
	return nil
}

// flag returns the field holding the named flag's value, or nil for a
// flag nothing reads (install's --version).
func (s *Step) flag(name string) *string {
	switch name {
	case "role":
		return &s.Role
	case "type":
		return &s.Type
	case "package":
		return &s.Package
	case "service":
		return &s.Service
	case "file":
		return &s.File
	case "artifact":
		return &s.Artifact
	}
	return nil
}

// splitWords appends the words of line to dst. A word is a run of bytes
// between spaces and tabs that no double quote encloses, with its quotes
// removed; a word of quotes alone is no word. An unterminated quote is an
// error.
func splitWords(dst []string, line string) ([]string, error) {
	start, quoted, inQuote := 0, false, false
	for i := 0; i <= len(line); i++ {
		if i < len(line) {
			if c := line[i]; c == '"' {
				inQuote, quoted = !inQuote, true
				continue
			} else if inQuote || c != ' ' && c != '\t' {
				continue
			}
		} else if inQuote {
			return dst, fmt.Errorf("unterminated quote in %q", line)
		}
		word := line[start:i]
		if quoted {
			word = strings.ReplaceAll(word, `"`, "")
		}
		if word != "" {
			dst = append(dst, word)
		}
		start, quoted = i+1, false
	}
	return dst, nil
}
