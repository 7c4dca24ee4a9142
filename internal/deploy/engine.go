// Package deploy executes Mulini-generated deployment bundles against the
// simulated cluster. The engine interprets the generated shell scripts
// directly: `bash <script>` lines recurse into other bundle artifacts and
// `elbactl <verb> ...` lines perform the actual actions (allocate,
// install, push, configure, start, stop, release), so the generated text
// is load-bearing, exactly as the paper's scripts are on a real testbed.
// Any other line is shell boilerplate and is ignored, mirroring how a
// real shell would execute echo/mkdir chatter without affecting the
// deployed system's logical state.
package deploy

import (
	"errors"
	"fmt"
	"strings"

	"elba/internal/cluster"
	"elba/internal/mulini"
)

// RetryPolicy bounds the engine's per-step retry behaviour. The zero
// policy keeps the historical pure set -e semantics: one attempt per
// step, the first failure aborts.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per elbactl step
	// (minimum 1; 1 = no retry).
	MaxAttempts int
	// BaseBackoffSec is the simulated wait before the first retry; it
	// doubles on every further attempt (bounded exponential backoff).
	BaseBackoffSec float64
	// StepTimeoutSec is the simulated cost charged for each failed
	// attempt, modelling a per-step timeout expiring before retry.
	StepTimeoutSec float64
}

// DefaultRetryPolicy is the policy the experiment runner applies when a
// fault profile is active: up to 4 attempts per step, 2 s initial
// backoff, 30 s per-step timeout.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 4, BaseBackoffSec: 2, StepTimeoutSec: 30}

// StepFault decides how many transient failures an elbactl step suffers
// before it can succeed (0 = none). Fault profiles derive this
// deterministically from the step's script/line coordinates.
type StepFault func(script string, line int, verb, role string) int

// errTransient marks an injected transient step failure (a timed-out
// ssh, an unreachable package mirror).
var errTransient = errors.New("transient failure injected (step timed out)")

// Engine interprets deployment bundles against a cluster.
type Engine struct {
	cluster  *cluster.Cluster
	roles    map[string]*cluster.Node
	maxDepth int

	policy  RetryPolicy
	faultFn StepFault

	steps      int
	retries    int
	elapsedSec float64
}

// NewEngine creates an engine bound to a cluster.
func NewEngine(c *cluster.Cluster) *Engine {
	return &Engine{cluster: c, roles: map[string]*cluster.Node{}, maxDepth: 16}
}

// SetRetryPolicy installs a per-step retry policy.
func (e *Engine) SetRetryPolicy(p RetryPolicy) { e.policy = p }

// SetStepFault installs a transient-failure injector consulted once per
// elbactl step.
func (e *Engine) SetStepFault(f StepFault) { e.faultFn = f }

// Retries reports the total step retries performed so far.
func (e *Engine) Retries() int { return e.retries }

// ElapsedSec reports the simulated time spent in step timeouts and
// retry backoffs.
func (e *Engine) ElapsedSec() float64 { return e.elapsedSec }

// Node resolves a role to its allocated node.
func (e *Engine) Node(role string) (*cluster.Node, bool) {
	n, ok := e.roles[role]
	return n, ok
}

// Execute runs a bundle starting from the entry script (normally
// "run.sh"). Execution has set -e semantics: the first failing elbactl
// command aborts with script/line context.
func (e *Engine) Execute(b *mulini.Bundle, entry string) error {
	return e.executeScript(b, entry, 0)
}

func (e *Engine) executeScript(b *mulini.Bundle, path string, depth int) error {
	if depth > e.maxDepth {
		return fmt.Errorf("deploy: script nesting too deep at %q", path)
	}
	art, ok := b.Get(path)
	if !ok {
		return fmt.Errorf("deploy: bundle has no script %q", path)
	}
	if art.Kind != mulini.Script {
		return fmt.Errorf("deploy: artifact %q is %s, not a script", path, art.Kind)
	}
	lines := strings.Split(art.Content, "\n")
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		switch {
		case strings.HasPrefix(line, "bash "):
			sub := strings.TrimSpace(strings.TrimPrefix(line, "bash "))
			if err := e.executeScript(b, sub, depth+1); err != nil {
				return fmt.Errorf("%s:%d: %w", path, i+1, err)
			}
		case line == "elbactl" || strings.HasPrefix(line, "elbactl "):
			if err := e.execElbactl(b, line, path, i+1); err != nil {
				return fmt.Errorf("%s:%d: %w", path, i+1, err)
			}
		}
	}
	return nil
}

// execElbactl parses and executes one elbactl command line. Malformed
// lines fail immediately; well-formed steps run under the engine's retry
// policy, with injected transient failures consuming attempts before the
// verb executes (the model is an ssh or mirror timeout: the command never
// ran, so retrying is safe).
func (e *Engine) execElbactl(b *mulini.Bundle, line, script string, lineNo int) error {
	words, err := splitWords(line)
	if err != nil {
		return err
	}
	if len(words) < 2 {
		return fmt.Errorf("deploy: malformed elbactl line %q", line)
	}
	verb := words[1]
	flags, err := parseFlags(words[2:])
	if err != nil {
		return err
	}
	role := flags["role"]
	if role == "" {
		return fmt.Errorf("deploy: elbactl %s requires --role", verb)
	}

	step := e.steps
	e.steps++
	glitches := 0
	if e.faultFn != nil {
		glitches = e.faultFn(script, lineNo, verb, role)
	}
	attempts := e.policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		var stepErr error
		if attempt <= glitches {
			stepErr = errTransient
		} else if stepErr = e.applyVerb(b, verb, role, flags); stepErr == nil {
			return nil
		}
		if attempt >= attempts {
			return fmt.Errorf("deploy: step %d (%s --role %s on %s) failed after %d attempt(s): %w",
				step, verb, role, e.nodeName(role), attempt, stepErr)
		}
		// The attempt timed out or failed: charge the step timeout plus a
		// doubling backoff before the next try, in simulated seconds.
		e.retries++
		e.elapsedSec += e.policy.StepTimeoutSec + e.policy.BaseBackoffSec*float64(int64(1)<<uint(attempt-1))
	}
}

// nodeName resolves a role to its node's hostname for error messages.
func (e *Engine) nodeName(role string) string {
	if n, ok := e.roles[role]; ok {
		return n.Name()
	}
	return "unbound"
}

// applyVerb performs one elbactl verb.
func (e *Engine) applyVerb(b *mulini.Bundle, verb, role string, flags map[string]string) error {
	switch verb {
	case "allocate":
		if _, dup := e.roles[role]; dup {
			return fmt.Errorf("deploy: role %s already allocated", role)
		}
		node, err := e.cluster.Allocate(flags["type"])
		if err != nil {
			return err
		}
		e.roles[role] = node
		return nil
	case "release":
		node, ok := e.roles[role]
		if !ok {
			return fmt.Errorf("deploy: release of unbound role %s", role)
		}
		e.cluster.Release(node)
		delete(e.roles, role)
		return nil
	}

	node, ok := e.roles[role]
	if !ok {
		return fmt.Errorf("deploy: role %s not allocated before %s", role, verb)
	}
	switch verb {
	case "install":
		pkg := flags["package"]
		if pkg == "" {
			return fmt.Errorf("deploy: install requires --package")
		}
		return node.Install(pkg)
	case "configure":
		pkg := flags["package"]
		if pkg == "" {
			return fmt.Errorf("deploy: configure requires --package")
		}
		return node.Configure(pkg)
	case "push":
		dest, artifact := flags["file"], flags["artifact"]
		if dest == "" || artifact == "" {
			return fmt.Errorf("deploy: push requires --file and --artifact")
		}
		src, ok := b.Get(artifact)
		if !ok {
			return fmt.Errorf("deploy: push references missing artifact %q", artifact)
		}
		node.WriteFile(dest, src.Content)
		return nil
	case "start":
		svc := flags["service"]
		if svc == "" {
			return fmt.Errorf("deploy: start requires --service")
		}
		return node.Start(svc)
	case "stop":
		svc := flags["service"]
		if svc == "" {
			return fmt.Errorf("deploy: stop requires --service")
		}
		return node.Stop(svc)
	default:
		return fmt.Errorf("deploy: unknown elbactl verb %q", verb)
	}
}

// splitWords splits a shell-ish command line honoring double quotes.
func splitWords(line string) ([]string, error) {
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
		return nil, fmt.Errorf("deploy: unterminated quote in %q", line)
	}
	flush()
	return out, nil
}

// parseFlags converts --key value pairs into a map.
func parseFlags(words []string) (map[string]string, error) {
	flags := map[string]string{}
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "--") {
			return nil, fmt.Errorf("deploy: expected flag, found %q", w)
		}
		key := strings.TrimPrefix(w, "--")
		if i+1 >= len(words) {
			return nil, fmt.Errorf("deploy: flag --%s has no value", key)
		}
		i++
		flags[key] = words[i]
	}
	return flags, nil
}
