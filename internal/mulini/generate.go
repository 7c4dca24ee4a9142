package mulini

import (
	"fmt"

	"elba/internal/cim"
	"elba/internal/spec"
)

// Backend renders a resolved deployment model into generated artifacts.
// Mulini translates its input "into one of several deployment languages"
// (paper §II); each target language is one Backend.
type Backend interface {
	// Name identifies the target language ("shell", "smartfrog").
	Name() string
	// Render produces the artifact bundle for one deployment.
	Render(d *Deployment) (*Bundle, error)
}

// Generator is the Mulini code generator: it resolves TBL experiments
// against a CIM catalog and renders deployments through a backend.
type Generator struct {
	catalog *cim.Catalog
	backend Backend
}

// NewGenerator creates a generator. A nil backend defaults to shell.
func NewGenerator(catalog *cim.Catalog, backend Backend) (*Generator, error) {
	if catalog == nil {
		return nil, fmt.Errorf("mulini: generator needs a CIM catalog")
	}
	if backend == nil {
		backend = ShellBackend{}
	}
	return &Generator{catalog: catalog, backend: backend}, nil
}

// Backend reports the generator's target language.
func (g *Generator) Backend() string { return g.backend.Name() }

// Generate resolves and renders every topology of the experiment,
// returning one deployment per w-a-d triple with its bundle attached.
func (g *Generator) Generate(e *spec.Experiment) ([]*Deployment, error) {
	if err := spec.Validate(e); err != nil {
		return nil, err
	}
	if err := g.checkPlatformCapacity(e); err != nil {
		return nil, err
	}
	var out []*Deployment
	for _, topo := range e.AllTopologies() {
		d, err := resolve(g.catalog, e, topo)
		if err != nil {
			return nil, err
		}
		bundle, err := g.backend.Render(d)
		if err != nil {
			return nil, fmt.Errorf("mulini: rendering %s/%s: %w", e.Name, topo, err)
		}
		d.Bundle = bundle
		out = append(out, d)
	}
	return out, nil
}

// GenerateOne renders a single topology, the entry point the scale-out
// controller uses when it grows the bottleneck tier between iterations.
func (g *Generator) GenerateOne(e *spec.Experiment, topo spec.Topology) (*Deployment, error) {
	scoped := *e
	scoped.Topology = topo
	scoped.Topologies = nil
	ds, err := g.Generate(&scoped)
	if err != nil {
		return nil, err
	}
	return ds[0], nil
}

// checkPlatformCapacity verifies the experiment's largest topology fits
// the platform's node pools, accounting for per-tier node-type pinning.
func (g *Generator) checkPlatformCapacity(e *spec.Experiment) error {
	platform, ok := g.catalog.PlatformByName(e.Platform)
	if !ok {
		return fmt.Errorf("mulini: platform %q not in catalog", e.Platform)
	}
	capacity := map[string]int{}
	total := 0
	for _, pool := range platform.Pools {
		capacity[pool.NodeType] += pool.NodeCount
		total += pool.NodeCount
	}
	for _, topo := range e.AllTopologies() {
		need := map[string]int{}
		// +1 machine for the client driver, allocated like the web tier.
		tiers := []struct {
			name  string
			count int
		}{{"web", topo.Web}, {"app", topo.App}, {"db", topo.DB}, {"web", 1}}
		anyNeed := 0
		for _, t := range tiers {
			if nt := e.Allocate[t.name]; nt != "" {
				need[nt] += t.count
			} else {
				anyNeed += t.count
			}
		}
		for nt, n := range need {
			have, ok := capacity[nt]
			if !ok {
				return fmt.Errorf("mulini: experiment %q pins tier to node type %q, absent from platform %q",
					e.Name, nt, e.Platform)
			}
			if n > have {
				return fmt.Errorf("mulini: experiment %q topology %s needs %d %q nodes; platform %q has %d",
					e.Name, topo, n, nt, e.Platform, have)
			}
		}
		if topo.Nodes()+1 > total {
			return fmt.Errorf("mulini: experiment %q topology %s needs %d nodes; platform %q has %d",
				e.Name, topo, topo.Nodes()+1, e.Platform, total)
		}
	}
	return nil
}

// ScaleReport summarizes the generation scale of an experiment set, the
// data behind the paper's Table 3 row for that set.
type ScaleReport struct {
	// Configurations counts the topologies generated.
	Configurations int
	// MachineCount sums machines across all configurations.
	MachineCount int
	// ScriptLines counts generated executable code.
	ScriptLines int
	// ConfigLines and ConfigFiles count the vendor configuration files
	// Mulini creates or modifies.
	ConfigLines int
	ConfigFiles int
}

// Scale computes the scale report for a generated experiment set.
func Scale(deployments []*Deployment) ScaleReport {
	r := ScaleReport{Configurations: len(deployments)}
	for _, d := range deployments {
		r.MachineCount += d.MachineCount()
		if d.Bundle == nil {
			continue
		}
		r.ScriptLines += d.Bundle.TotalLines(Script)
		r.ConfigLines += d.Bundle.TotalLines(Config) + d.Bundle.TotalLines(Data)
		r.ConfigFiles += len(d.Bundle.ByKind(Config)) + len(d.Bundle.ByKind(Data))
	}
	return r
}
