package mulini

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// referenceSplitWords is the deploy engine's original tokenizer, kept as
// the reference splitWords must agree with: it builds every word byte by
// byte.
func referenceSplitWords(line string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
		case c == ' ' || c == '\t':
			if inQuote {
				cur.WriteByte(c)
			} else {
				flush()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	flush()
	return out, nil
}

// checkSplit fails unless splitWords and the reference agree on line.
func checkSplit(t *testing.T, line string) []string {
	t.Helper()
	got, err := splitWords(nil, line)
	want, wantErr := referenceSplitWords(line)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("split %q: error %v, reference error %v", line, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("split %q = %q, reference %q", line, got, want)
	}
	return got
}

func TestSplitWords(t *testing.T) {
	for _, c := range []struct {
		line string
		want []string // nil with err
		err  bool
	}{
		{`elbactl install --version "4.1 Max" --x y`, []string{"elbactl", "install", "--version", "4.1 Max", "--x", "y"}, false},
		{"elbactl\tstart \t --role  A", []string{"elbactl", "start", "--role", "A"}, false},
		{`a "" b ""`, []string{"a", "b"}, false},
		{`a"b c"d "e"`, []string{"ab cd", "e"}, false},
		{`"	tab inside"`, []string{"\ttab inside"}, false},
		{"", nil, false},
		{` " `, nil, true},
		{`elbactl install --version "5.0`, nil, true},
	} {
		got := checkSplit(t, c.line)
		if !c.err && !reflect.DeepEqual(got, c.want) {
			t.Errorf("split %q = %q, want %q", c.line, got, c.want)
		}
	}
}

// scriptBundle returns a bundle holding each script and one config.
func scriptBundle(t testing.TB, scripts map[string]string) *Bundle {
	t.Helper()
	b := NewBundle()
	for path, content := range scripts {
		if err := b.Add(Artifact{Path: path, Kind: Script, Content: content}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Add(Artifact{Path: "x.properties", Kind: Config, Content: "k=v\n"}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWalkParsesSteps(t *testing.T) {
	for _, c := range []struct {
		line string
		want Step // Script and Line aside
		err  string
	}{
		{"elbactl allocate --role WEB1 --type low-end", Step{Verb: "allocate", Role: "WEB1", Type: "low-end"}, ""},
		{`  elbactl install --role A --package mysql --version "5.0 GA"`, Step{Verb: "install", Role: "A", Package: "mysql"}, ""},
		{"elbactl push --role A --file /etc/my.cnf --artifact x.properties", Step{Verb: "push", Role: "A", File: "/etc/my.cnf", Artifact: "x.properties"}, ""},
		{"elbactl stop --service s --role A", Step{Verb: "stop", Role: "A", Service: "s"}, ""},
		{"elbactl", Step{}, "has no verb"},
		{"elbactl frob --role A", Step{}, `unknown elbactl verb "frob"`},
		{"elbactl allocate --role A --type", Step{}, "flag --type has no value"},
		{"elbactl allocate --role A stray", Step{}, `expected flag, found "stray"`},
		{`elbactl start --role A --service "x`, Step{}, "unterminated quote"},
		{"elbactl release", Step{}, "elbactl release requires --role"},
		{"elbactl install --role A", Step{}, "elbactl install requires --package"},
		{"elbactl configure --role A --version 1", Step{}, "elbactl configure requires --package"},
		{"elbactl push --role A --file /x", Step{}, "elbactl push requires --artifact"},
		{"elbactl push --role A --artifact x.properties", Step{}, "elbactl push requires --file"},
		{"elbactl start --role A --package x", Step{}, "elbactl start requires --service"},
	} {
		var got []Step
		err := Walk(scriptBundle(t, map[string]string{"run.sh": "# comment\n" + c.line + "\n"}), "run.sh",
			func(s Step) error { got = append(got, s); return nil })
		if err != nil || len(got) != 1 || got[0].Script != "run.sh" || got[0].Line != 2 {
			t.Fatalf("%q: walk error %v, steps %+v", c.line, err, got)
		}
		s := got[0]
		if c.err != "" {
			if s.Err == nil || !strings.Contains(s.Err.Error(), c.err) {
				t.Errorf("%q: error %v, want %q", c.line, s.Err, c.err)
			}
			continue
		}
		s.Script, s.Line = "", 0
		if s != c.want {
			t.Errorf("%q: step %+v, want %+v", c.line, s, c.want)
		}
	}
}

// TestWalkFollowsCalls checks the execution order, the positions handed
// to visit, the checks on called scripts, and the script:line chain on
// an error from visit.
func TestWalkFollowsCalls(t *testing.T) {
	b := scriptBundle(t, map[string]string{
		"run.sh": "elbactl allocate --role A\nbash a.sh\n\nbash missing.sh\nbash x.properties\nelbactl release --role A\n",
		"a.sh":   "echo hi\nbash b.sh\nelbactl install --role A --package p\n",
		"b.sh":   "elbactl install --role A --package q\n",
	})
	var got []string
	err := Walk(b, "run.sh", func(s Step) error {
		what := s.Verb
		if s.Call != "" {
			what = "bash " + s.Call
		}
		if s.Err != nil {
			what += " ! " + s.Err.Error()
		}
		got = append(got, fmt.Sprintf("%s:%d %s", s.Script, s.Line, what))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"run.sh:1 allocate",
		"run.sh:2 bash a.sh",
		"a.sh:2 bash b.sh",
		"b.sh:1 install",
		"a.sh:3 install",
		`run.sh:4 bash missing.sh ! missing script "missing.sh"`,
		`run.sh:5 bash x.properties ! artifact "x.properties" is config, not a script`,
		"run.sh:6 release",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk visited\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	err = Walk(b, "run.sh", func(s Step) error {
		if s.Script == "b.sh" {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "run.sh:2: a.sh:2: b.sh:1: boom" {
		t.Fatalf("error = %v, want the call chain", err)
	}
	if err := Walk(b, "nope.sh", nil); err == nil || !strings.Contains(err.Error(), `missing script "nope.sh"`) {
		t.Fatalf("missing entry: %v", err)
	}
	if err := Walk(b, "x.properties", nil); err == nil || !strings.Contains(err.Error(), "not a script") {
		t.Fatalf("config entry: %v", err)
	}
}

// TestWalkNestingBound walks a chain of distinct scripts, each calling
// the next: the entry and 16 nested calls run, and the 17th call is
// refused at its line.
func TestWalkNestingBound(t *testing.T) {
	name := func(i int) string {
		if i == 0 {
			return "run.sh"
		}
		return fmt.Sprintf("s%d.sh", i)
	}
	scripts := map[string]string{}
	var want strings.Builder
	for i := 0; i <= maxNesting+1; i++ {
		scripts[name(i)] = fmt.Sprintf("elbactl allocate --role A\nbash %s\n", name(i+1))
		if i <= maxNesting {
			want.WriteString(name(i) + ":2: ")
		}
	}
	fmt.Fprintf(&want, "script nesting too deep at %q", name(maxNesting+1))
	steps := 0
	err := Walk(scriptBundle(t, scripts), "run.sh", func(s Step) error {
		if s.Call == "" {
			steps++
		}
		return s.Err
	})
	if steps != 1+maxNesting {
		t.Errorf("%d levels ran, want %d", steps, 1+maxNesting)
	}
	if err == nil || err.Error() != want.String() {
		t.Fatalf("error = %v, want %q", err, want.String())
	}
}

// TestWalkRefusesRecursion checks that a bash call to a script already
// on the call stack reaches visit with Err set and is not followed,
// while a script called twice in turn runs twice.
func TestWalkRefusesRecursion(t *testing.T) {
	b := scriptBundle(t, map[string]string{
		"run.sh": "bash lib.sh\nbash lib.sh\nbash run.sh\n",
		"lib.sh": "elbactl allocate --role A\nbash run.sh\n",
	})
	var got []string
	err := Walk(b, "run.sh", func(s Step) error {
		at := fmt.Sprintf("%s:%d", s.Script, s.Line)
		if s.Err != nil {
			at += " " + s.Err.Error()
		}
		got = append(got, at)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"run.sh:1", "lib.sh:1", `lib.sh:2 recursive script nesting at "run.sh"`,
		"run.sh:2", "lib.sh:1", `lib.sh:2 recursive script nesting at "run.sh"`,
		`run.sh:3 recursive script nesting at "run.sh"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("steps = %q, want %q", got, want)
	}
}

// FuzzParseScript feeds arbitrary text to the parser as run.sh. Every
// line must split as the reference tokenizer splits it, and every step
// the walk accepts must carry a role and its verb's required flags.
func FuzzParseScript(f *testing.F) {
	for _, seed := range []string{
		"#!/bin/bash\nset -e\nelbactl allocate --role WEB1 --type low-end\nbash lib.sh\n",
		`elbactl install --role A --package mysql --version "5.0.5"` + "\n\telbactl\tstart --role A --service mysql\n",
		"elbactl push --role A --file /etc/my.cnf --artifact x.properties\nbash x.properties\nbash run.sh\n",
		`elbactl configure --role "A B" --package ""` + "\nelbactl stop --role A --service \"x\n",
		"elbactl release --role A extra\nelbactl frob\nbash missing.sh\necho \"[elba] done\"\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, content string) {
		for _, line := range strings.Split(content, "\n") {
			checkSplit(t, line)
		}
		b := scriptBundle(t, map[string]string{
			"run.sh": content,
			"lib.sh": "elbactl allocate --role L\n",
		})
		// Go on past every error, as staging does: a recursive call is
		// refused, so the walk reads each line of run.sh once and
		// lib.sh once per call. Any error is fine; the walk must only
		// not panic and accept no incomplete step.
		if err := Walk(b, "run.sh", func(s Step) error {
			if s.Line < 1 || s.Script == "" {
				t.Fatalf("step without a position: %+v", s)
			}
			if s.Err != nil || s.Call != "" {
				return nil
			}
			missing := s.Role == ""
			switch s.Verb {
			case "allocate", "release":
			case "install", "configure":
				missing = missing || s.Package == ""
			case "push":
				missing = missing || s.File == "" || s.Artifact == ""
			case "start", "stop":
				missing = missing || s.Service == ""
			default:
				t.Fatalf("accepted an unknown verb: %+v", s)
			}
			if missing {
				t.Fatalf("accepted a step without its required flags: %+v", s)
			}
			return nil
		}); err != nil {
			t.Fatalf("walk failed: %v", err)
		}
	})
}
