// Package deploy executes Mulini-generated deployment bundles against the
// simulated cluster. The engine runs the steps mulini.Walk reads from the
// generated scripts (allocate, install, push, configure, start, stop,
// release) in execution order, so the generated text is load-bearing,
// exactly as the paper's scripts are on a real testbed.
package deploy

import (
	"errors"
	"fmt"

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
	cluster *cluster.Cluster
	roles   map[string]*cluster.Node

	policy  RetryPolicy
	faultFn StepFault

	steps      int
	retries    int
	elapsedSec float64
}

// NewEngine creates an engine bound to a cluster.
func NewEngine(c *cluster.Cluster) *Engine {
	return &Engine{cluster: c, roles: map[string]*cluster.Node{}}
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
// "run.sh"). Execution has set -e semantics: the first failing step
// aborts with script/line context.
func (e *Engine) Execute(b *mulini.Bundle, entry string) error {
	return mulini.Walk(b, entry, func(s mulini.Step) error { return e.run(b, s) })
}

// run executes one step. A malformed line fails at once; a well-formed
// elbactl step runs under the engine's retry policy, with injected
// transient failures consuming attempts before the verb executes (the
// model is an ssh or mirror timeout: the command never ran, so retrying
// is safe).
func (e *Engine) run(b *mulini.Bundle, s mulini.Step) error {
	if s.Err != nil {
		return fmt.Errorf("deploy: %w", s.Err)
	}
	if s.Call != "" {
		return nil
	}
	step := e.steps
	e.steps++
	glitches := 0
	if e.faultFn != nil {
		glitches = e.faultFn(s.Script, s.Line, s.Verb, s.Role)
	}
	attempts := e.policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		var stepErr error
		if attempt <= glitches {
			stepErr = errTransient
		} else if stepErr = e.applyVerb(b, s); stepErr == nil {
			return nil
		}
		if attempt >= attempts {
			return fmt.Errorf("deploy: step %d (%s --role %s on %s) failed after %d attempt(s): %w",
				step, s.Verb, s.Role, e.nodeName(s.Role), attempt, stepErr)
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

// applyVerb performs one elbactl step.
func (e *Engine) applyVerb(b *mulini.Bundle, s mulini.Step) error {
	switch s.Verb {
	case "allocate":
		if _, dup := e.roles[s.Role]; dup {
			return fmt.Errorf("deploy: role %s already allocated", s.Role)
		}
		node, err := e.cluster.Allocate(s.Type)
		if err != nil {
			return err
		}
		e.roles[s.Role] = node
		return nil
	case "release":
		node, ok := e.roles[s.Role]
		if !ok {
			return fmt.Errorf("deploy: release of unbound role %s", s.Role)
		}
		e.cluster.Release(node)
		delete(e.roles, s.Role)
		return nil
	}

	node, ok := e.roles[s.Role]
	if !ok {
		return fmt.Errorf("deploy: role %s not allocated before %s", s.Role, s.Verb)
	}
	switch s.Verb {
	case "push":
		src, ok := b.Get(s.Artifact)
		if !ok {
			return fmt.Errorf("deploy: push references missing artifact %q", s.Artifact)
		}
		node.WriteFile(s.File, src.Content)
		return nil
	case "install", "configure":
		return node.Apply(s.Verb, s.Package)
	default: // start or stop
		return node.Apply(s.Verb, s.Service)
	}
}
