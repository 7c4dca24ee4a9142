package deploy

import (
	"fmt"

	"elba/internal/cluster"
	"elba/internal/mulini"
)

// Placement is the result of a successful deployment: the binding from
// deployment roles to cluster nodes, plus verification results.
type Placement struct {
	// Deployment is the Mulini model that was deployed.
	Deployment *mulini.Deployment
	// Nodes maps role names to allocated nodes.
	Nodes map[string]*cluster.Node
	// Retries counts deployment-step retries performed executing run.sh.
	Retries int
	// DeploySec is the simulated time spent in step timeouts and retry
	// backoffs while deploying.
	DeploySec float64
}

// Node returns the node bound to a role.
func (p *Placement) Node(role string) (*cluster.Node, bool) {
	n, ok := p.Nodes[role]
	return n, ok
}

// Deployer runs a deployment's generated bundle end to end and verifies
// the resulting cluster state.
type Deployer struct {
	cluster *cluster.Cluster

	policy      RetryPolicy
	stepFault   StepFault
	nodeFactors map[string]float64
}

// NewDeployer creates a deployer bound to a cluster.
func NewDeployer(c *cluster.Cluster) *Deployer {
	return &Deployer{cluster: c}
}

// SetRetryPolicy installs the per-step retry policy used for every bundle
// this deployer executes. The zero policy keeps pure set -e semantics.
func (dp *Deployer) SetRetryPolicy(p RetryPolicy) { dp.policy = p }

// SetStepFault installs a transient-failure injector shared by every
// engine this deployer creates.
func (dp *Deployer) SetStepFault(f StepFault) { dp.stepFault = f }

// SetNodeFactors installs deployment-scope hardware degradation: after a
// successful deploy, each listed role's node is marked degraded with the
// given effective-speed factor.
func (dp *Deployer) SetNodeFactors(m map[string]float64) { dp.nodeFactors = m }

// Deploy executes the deployment's run.sh and verifies that every role's
// services are running. On failure the cluster may hold partial state;
// callers release it with the cluster's ReleaseAll or by Undeploy.
func (dp *Deployer) Deploy(d *mulini.Deployment) (*Placement, error) {
	if d.Bundle == nil {
		return nil, fmt.Errorf("deploy: deployment %s has no generated bundle", d.Topology)
	}
	eng := NewEngine(dp.cluster)
	eng.SetRetryPolicy(dp.policy)
	eng.SetStepFault(dp.stepFault)
	if err := eng.Execute(d.Bundle, "run.sh"); err != nil {
		return nil, err
	}
	p := &Placement{
		Deployment: d,
		Nodes:      map[string]*cluster.Node{},
		Retries:    eng.Retries(),
		DeploySec:  eng.ElapsedSec(),
	}
	for _, a := range d.Assignments {
		node, ok := eng.Node(a.Role)
		if !ok {
			return nil, fmt.Errorf("deploy: role %s was never allocated by run.sh", a.Role)
		}
		p.Nodes[a.Role] = node
		for _, pkg := range a.Packages {
			if st := node.State(pkg.Name); st != cluster.Running {
				return nil, fmt.Errorf("deploy: %s on %s is %s after run.sh, want running",
					pkg.Name, a.Role, st)
			}
		}
	}
	// Apply deployment-scope hardware degradation once the binding is
	// known. Factors are set before any trial starts and only read after,
	// so concurrent trials see a consistent node speed.
	for role, f := range dp.nodeFactors {
		if node, ok := p.Nodes[role]; ok {
			node.Degrade(f)
		}
	}
	return p, nil
}

// Undeploy executes teardown.sh, stopping services and releasing nodes.
func (dp *Deployer) Undeploy(p *Placement) error {
	eng := NewEngine(dp.cluster)
	eng.SetRetryPolicy(dp.policy)
	eng.SetStepFault(dp.stepFault)
	// Rebind existing roles so teardown can address them.
	for role, node := range p.Nodes {
		eng.roles[role] = node
	}
	if err := eng.Execute(p.Deployment.Bundle, "teardown.sh"); err != nil {
		return err
	}
	for role, node := range p.Nodes {
		if node.Allocated() {
			return fmt.Errorf("deploy: teardown left role %s allocated", role)
		}
	}
	return nil
}
