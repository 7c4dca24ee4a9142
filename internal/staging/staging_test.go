package staging

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"elba/internal/cim"
	"elba/internal/mulini"
	"elba/internal/spec"
)

func generated(t *testing.T, topo string) *mulini.Bundle {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := spec.Parse(`experiment "stage" {
		benchmark rubis; platform emulab; appserver jonas;
		topologies ` + topo + `;
		workload { users 100; writeratio 15; }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mulini.NewGenerator(cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := g.Generate(doc.Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	return ds[0].Bundle
}

// TestGeneratedBundlesValidateClean is the generator's staging contract:
// Mulini output must produce zero errors and zero warnings.
func TestGeneratedBundlesValidateClean(t *testing.T) {
	for _, topo := range []string{"1-1-1", "1-2-2", "1-8-3"} {
		issues := Validate(generated(t, topo), "run.sh")
		for _, i := range issues {
			t.Errorf("%s: %s", topo, i)
		}
	}
}

func scriptBundle(t *testing.T, scripts map[string]string) *mulini.Bundle {
	t.Helper()
	b := mulini.NewBundle()
	for path, content := range scripts {
		kind := mulini.Script
		if strings.HasSuffix(path, ".properties") {
			kind = mulini.Config
		}
		if err := b.Add(mulini.Artifact{Path: path, Kind: kind, Content: content}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func wantIssue(t *testing.T, issues []Issue, substr string) {
	t.Helper()
	for _, i := range issues {
		if strings.Contains(i.Message, substr) {
			return
		}
	}
	t.Errorf("no issue mentions %q; got %v", substr, issues)
}

func TestValidateMissingEntry(t *testing.T) {
	b := scriptBundle(t, map[string]string{"other.sh": "echo hi\n"})
	issues := Validate(b, "run.sh")
	if len(issues) != 1 || issues[0].Severity != Error {
		t.Fatalf("issues = %v", issues)
	}
	wantIssue(t, issues, "no entry script")
}

func TestValidateDanglingScriptReference(t *testing.T) {
	b := scriptBundle(t, map[string]string{"run.sh": "bash missing.sh\n"})
	wantIssue(t, Validate(b, "run.sh"), "missing script")
}

func TestValidateLifecycleViolations(t *testing.T) {
	cases := []struct {
		name   string
		script string
		want   string
	}{
		{"start before install",
			"elbactl allocate --role A\nelbactl start --role A --service x\n",
			"from state absent"},
		{"configure before install",
			"elbactl allocate --role A\nelbactl configure --role A --package x\n",
			"before install"},
		{"double install",
			"elbactl allocate --role A\nelbactl install --role A --package x\nelbactl install --role A --package x\n",
			"already installed"},
		{"double start",
			"elbactl allocate --role A\nelbactl install --role A --package x\nelbactl configure --role A --package x\nelbactl start --role A --service x\nelbactl start --role A --service x\n",
			"already running"},
		{"install unallocated",
			"elbactl install --role A --package x\n",
			"unallocated role"},
		{"double allocate",
			"elbactl allocate --role A\nelbactl allocate --role A\n",
			"allocated twice"},
		{"release unallocated",
			"elbactl release --role Z\n",
			"unallocated role"},
		{"unknown verb",
			"elbactl allocate --role A\nelbactl frob --role A\n",
			"unknown elbactl verb"},
		{"push missing artifact",
			"elbactl allocate --role A\nelbactl push --role A --file /x --artifact nope\n",
			"missing artifact"},
	}
	for _, c := range cases {
		b := scriptBundle(t, map[string]string{"run.sh": c.script})
		issues := Errors(Validate(b, "run.sh"))
		found := false
		for _, i := range issues {
			if strings.Contains(i.Message, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no error mentions %q; got %v", c.name, c.want, issues)
		}
	}
}

func TestValidateServicesLeftDown(t *testing.T) {
	b := scriptBundle(t, map[string]string{
		"run.sh": "elbactl allocate --role A\nelbactl install --role A --package x\nelbactl configure --role A --package x\n",
	})
	wantIssue(t, Validate(b, "run.sh"), "expected running")
}

func TestValidateTeardownLeaks(t *testing.T) {
	b := scriptBundle(t, map[string]string{
		"run.sh": "elbactl allocate --role A\nelbactl install --role A --package x\n" +
			"elbactl configure --role A --package x\nelbactl start --role A --service x\n",
		"teardown.sh": "elbactl stop --role A --service x\n", // no release
	})
	wantIssue(t, Validate(b, "run.sh"), "still allocated")
}

func TestValidateUnreachableAndUnused(t *testing.T) {
	b := scriptBundle(t, map[string]string{
		"run.sh":            "elbactl allocate --role A\nelbactl release --role A\n",
		"orphan.sh":         "echo never called\n",
		"unused.properties": "key=value\n",
	})
	issues := Validate(b, "run.sh")
	wantIssue(t, issues, "unreachable")
	wantIssue(t, issues, "never pushed")
	// Both are warnings, not errors.
	if len(Errors(issues)) != 0 {
		t.Fatalf("expected warnings only: %v", issues)
	}
}

func TestValidateRecursionCapped(t *testing.T) {
	b := scriptBundle(t, map[string]string{"run.sh": "bash run.sh\n"})
	wantIssue(t, Validate(b, "run.sh"), "nesting")
}

// TestValidateSelfCallsOnce gives run.sh two and then three lines that
// call it again. Each is one issue at its own line, and none is
// followed: a walk that followed them would report issues in numbers
// exponential in the number of lines, and take minutes for three.
func TestValidateSelfCallsOnce(t *testing.T) {
	for _, n := range []int{2, 3} {
		b := scriptBundle(t, map[string]string{"run.sh": strings.Repeat("bash run.sh\n", n)})
		done := make(chan []Issue, 1)
		go func() { done <- Validate(b, "run.sh") }()
		var issues []Issue
		select {
		case issues = <-done:
		case <-time.After(time.Second):
			t.Fatalf("%d self-calls: Validate ran for over a second", n)
		}
		if len(issues) != n {
			t.Fatalf("%d self-calls: %d issues, want %d: %v", n, len(issues), n, issues[:min(len(issues), n+1)])
		}
		for i, is := range issues {
			if is.Script != "run.sh" || is.Line != i+1 || !strings.Contains(is.Message, "recursive") {
				t.Errorf("%d self-calls: issue %d = %v, want a recursive call at run.sh:%d", n, i, is, i+1)
			}
		}
	}
}

// TestValidateIssueOrderFixed checks that bundle-level issues, which
// come from map walks, are returned in one order.
func TestValidateIssueOrderFixed(t *testing.T) {
	b := scriptBundle(t, map[string]string{
		"run.sh": "elbactl allocate --role A\nelbactl allocate --role B\n" +
			"elbactl allocate --role C\nelbactl allocate --role D\n",
		"teardown.sh": "echo leaves every role allocated\n",
	})
	want := fmt.Sprint(Validate(b, "run.sh"))
	if strings.Count(want, "still allocated") != 4 {
		t.Fatalf("issues = %s, want four leaked roles", want)
	}
	for i := 0; i < 50; i++ {
		if got := fmt.Sprint(Validate(b, "run.sh")); got != want {
			t.Fatalf("call %d ordered the issues\n%s\nthe first ordered them\n%s", i, got, want)
		}
	}
}

func TestIssueString(t *testing.T) {
	i := Issue{Severity: Error, Script: "run.sh", Line: 3, Message: "boom"}
	if i.String() != "run.sh:3: error: boom" {
		t.Fatalf("issue string = %q", i.String())
	}
	b := Issue{Severity: Warning, Message: "meh"}
	if b.String() != "warning: meh" {
		t.Fatalf("bundle-level string = %q", b.String())
	}
}

// TestValidatorMatchesEngine cross-checks the static validator against
// the dynamic deploy engine: a bundle that validates without errors must
// deploy; a bundle with a lifecycle error must fail execution too.
func TestValidatorMatchesEngine(t *testing.T) {
	good := generated(t, "1-2-1")
	if errs := Errors(Validate(good, "run.sh")); len(errs) != 0 {
		t.Fatalf("clean bundle has errors: %v", errs)
	}
	// Corrupt the bundle: reference a missing artifact.
	bad := scriptBundle(t, map[string]string{
		"run.sh": "elbactl allocate --role A\nelbactl push --role A --file /x --artifact gone\n",
	})
	if errs := Errors(Validate(bad, "run.sh")); len(errs) == 0 {
		t.Fatalf("corrupted bundle validated clean")
	}
}
