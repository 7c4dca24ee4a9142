package staging

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/mulini"
	"elba/internal/spec"
)

// mutations returns broken copies of one elbactl line, each with the
// name of its defect.
func mutations(line string) map[string]string {
	words := strings.Fields(line)
	last := len(words) - 1
	out := map[string]string{
		"dropped value": strings.Join(words[:last], " "),
		"stray word":    line + " stray",
		"open quote":    strings.Join(words[:last], " ") + ` "` + words[last],
		"misspelt verb": strings.Replace(line, " "+words[1]+" ", " "+words[1][:len(words[1])-1]+" ", 1),
	}
	for i := 2; i < last; i++ {
		switch words[i] {
		case "--role", "--package", "--service", "--artifact":
			rest := append(append([]string{}, words[:i]...), words[i+2:]...)
			out["dropped "+words[i]] = strings.Join(rest, " ")
		}
	}
	return out
}

var position = regexp.MustCompile(`^([^\s:]+:\d+): `)

// failedAt returns the script:line where a deploy error arose: the last
// of the positions the error starts with.
func failedAt(err error) string {
	msg, at := err.Error(), ""
	for m := position.FindStringSubmatch(msg); m != nil; m = position.FindStringSubmatch(msg) {
		at, msg = m[1], msg[len(m[0]):]
	}
	return at
}

// TestStagingAgreesWithDeploy breaks one elbactl line of a generated
// bundle at a time. Whenever Deploy (or, for teardown.sh, Undeploy)
// fails at the broken line, Validate must report an error at the same
// script:line.
func TestStagingAgreesWithDeploy(t *testing.T) {
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	platform, _ := cat.PlatformByName("emulab")
	for _, src := range []string{
		`experiment "agree" { benchmark rubis; platform emulab; appserver jonas;
			topology { web 1; app 1; db 1; } workload { users 100; writeratio 15; } }`,
		`experiment "agree" { benchmark rubis; platform emulab; appserver jonas;
			topology { web 1; app 8; db 2; } workload { users 100; writeratio 15; } }`,
		`experiment "agree" { benchmark rubbos; platform emulab; appserver tomcat; mix submission;
			topology { web 1; app 2; db 2; } allocate { web low-end; app high-end; db high-end; }
			workload { users 100; writeratio 10; } }`,
	} {
		doc, err := spec.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := gen.GenerateOne(doc.Experiments[0], doc.Experiments[0].Topology)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, a := range d.Bundle.ByKind(mulini.Script) {
			lines := strings.Split(a.Content, "\n")
			for i, line := range lines {
				if !strings.HasPrefix(line, "elbactl ") {
					continue
				}
				for defect, broken := range mutations(line) {
					lines[i] = broken
					bad := *d
					bad.Bundle = replaced(t, d.Bundle, a.Path, strings.Join(lines, "\n"))
					lines[i] = line
					cl, err := cluster.New(platform)
					if err != nil {
						t.Fatal(err)
					}
					dp := deploy.NewDeployer(cl)
					p, err := dp.Deploy(&bad)
					if err == nil {
						err = dp.Undeploy(p)
					}
					at := fmt.Sprintf("%s:%d", a.Path, i+1)
					if err == nil || failedAt(err) != at {
						continue
					}
					checked++
					if !hasErrorAt(Validate(bad.Bundle, "run.sh"), a.Path, i+1) {
						t.Errorf("%s, %s (%s): deploy fails there (%v) but staging reports no error there",
							d.Topology, at, defect, err)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no mutation made deploy fail at its line", d.Topology)
		}
	}
}

// replaced copies b with the artifact at path holding content.
func replaced(t *testing.T, b *mulini.Bundle, path, content string) *mulini.Bundle {
	t.Helper()
	out := mulini.NewBundle()
	for _, p := range b.Paths() {
		a, _ := b.Get(p)
		c := *a
		if p == path {
			c.Content = content
		}
		if err := out.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func hasErrorAt(issues []Issue, script string, line int) bool {
	for _, i := range issues {
		if i.Severity == Error && i.Script == script && i.Line == line {
			return true
		}
	}
	return false
}
