package deploy

import (
	"strings"
	"testing"

	"elba/internal/cim"
	"elba/internal/cluster"
)

func warpCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	platform, _ := cat.PlatformByName("warp")
	c, err := cluster.New(platform)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineStepErrorText is the error-path table test: exhausted steps
// must identify the step index, verb, role, node, and attempt count, and
// the executeScript wrapper must still prefix the script:line provenance.
func TestEngineStepErrorText(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
		want  []string
	}{
		{
			name:  "unallocated role, no retry policy",
			lines: []string{`elbactl install --role A --package x`},
			want: []string{
				"run.sh:1", "step 0", "install --role A", "on unbound",
				"failed after 1 attempt(s)", "role A not allocated",
			},
		},
		{
			name: "failure on an allocated node names the host",
			lines: []string{
				`elbactl allocate --role A`,
				`elbactl start --role A --service ghost`,
			},
			want: []string{
				"run.sh:2", "step 1", "start --role A", "failed after 1 attempt(s)",
			},
		},
		{
			name: "duplicate allocation cites the second step",
			lines: []string{
				`elbactl allocate --role A`,
				`elbactl allocate --role A`,
			},
			want: []string{
				"run.sh:2", "step 1", "allocate --role A", "already allocated",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := NewEngine(warpCluster(t))
			err := eng.Execute(badBundle(t, c.lines...), "run.sh")
			if err == nil {
				t.Fatal("expected error")
			}
			for _, frag := range c.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q missing %q", err, frag)
				}
			}
		})
	}
}

// TestEnginePermanentErrorRetriesThenFails checks that a retry policy
// spends its whole budget on a persistent failure and reports the final
// attempt count.
func TestEnginePermanentErrorRetriesThenFails(t *testing.T) {
	eng := NewEngine(warpCluster(t))
	eng.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoffSec: 2, StepTimeoutSec: 10})
	err := eng.Execute(badBundle(t, `elbactl install --role A --package x`), "run.sh")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "failed after 3 attempt(s)") {
		t.Fatalf("error does not report the exhausted budget: %v", err)
	}
	if eng.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", eng.Retries())
	}
	// Two failed attempts before the last: 2×timeout plus backoffs 2s+4s.
	if got, want := eng.ElapsedSec(), 2*10.0+2.0+4.0; got != want {
		t.Fatalf("elapsed = %g, want %g", got, want)
	}
}

// TestEngineGlitchesRecoverUnderRetry injects transient failures below the
// attempt budget: the run must succeed, count the retries, and apply each
// step exactly once.
func TestEngineGlitchesRecoverUnderRetry(t *testing.T) {
	eng := NewEngine(warpCluster(t))
	eng.SetRetryPolicy(DefaultRetryPolicy) // 4 attempts
	glitched := map[int]int{2: 2, 4: 1}    // per-line transient failures
	var consulted int
	eng.SetStepFault(func(script string, line int, verb, role string) int {
		consulted++
		return glitched[line]
	})
	lines := []string{
		`elbactl allocate --role A`,
		`elbactl install --role A --package tomcat`,
		`elbactl configure --role A --package tomcat`,
		`elbactl start --role A --service tomcat`,
	}
	if err := eng.Execute(badBundle(t, lines...), "run.sh"); err != nil {
		t.Fatal(err)
	}
	if consulted != len(lines) {
		t.Errorf("fault injector consulted %d times, want once per step (%d)", consulted, len(lines))
	}
	if eng.Retries() != 3 {
		t.Errorf("retries = %d, want 3", eng.Retries())
	}
	if eng.steps != len(lines) {
		t.Errorf("steps = %d, want %d", eng.steps, len(lines))
	}
	if eng.ElapsedSec() <= 0 {
		t.Error("retries charged no simulated time")
	}
	if n, ok := eng.Node("A"); !ok || n.State("tomcat") != cluster.Running {
		t.Errorf("tomcat did not end up running on A")
	}
}

// TestEngineGlitchesExceedBudget makes the injected transient failures
// outlast the policy: the step must fail with the transient cause.
func TestEngineGlitchesExceedBudget(t *testing.T) {
	eng := NewEngine(warpCluster(t))
	eng.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoffSec: 1, StepTimeoutSec: 5})
	eng.SetStepFault(func(string, int, string, string) int { return 5 })
	err := eng.Execute(badBundle(t, `elbactl allocate --role A`), "run.sh")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "transient failure injected") {
		t.Fatalf("error lost the transient cause: %v", err)
	}
	if !strings.Contains(err.Error(), "failed after 2 attempt(s)") {
		t.Fatalf("error does not report the attempt budget: %v", err)
	}
	if len(eng.roles) != 0 {
		t.Fatalf("failed allocate left roles bound: %v", eng.roles)
	}
}

// TestEngineZeroPolicyKeepsSetESemantics pins backward compatibility: the
// zero policy means one attempt, no retries, no simulated retry time.
func TestEngineZeroPolicyKeepsSetESemantics(t *testing.T) {
	eng := NewEngine(warpCluster(t))
	glitches := 1
	eng.SetStepFault(func(string, int, string, string) int { return glitches })
	err := eng.Execute(badBundle(t, `elbactl allocate --role A`), "run.sh")
	if err == nil {
		t.Fatal("zero policy must not absorb a transient failure")
	}
	if eng.Retries() != 0 || eng.ElapsedSec() != 0 {
		t.Fatalf("zero policy performed retries: %d (%gs)", eng.Retries(), eng.ElapsedSec())
	}
}
