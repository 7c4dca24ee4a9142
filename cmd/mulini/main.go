// Command mulini is the code generator CLI: it reads a TBL experiment
// specification and emits the deployment bundle — scripts, vendor
// configuration files, and workload-driver parameters — exactly as the
// experiment runner would consume it, so the generated code can be
// inspected or counted (the paper's Tables 3–5).
//
// Usage:
//
//	mulini [-backend shell|smartfrog] [-out DIR] [-topology W-A-D] SPEC.tbl
//	mulini -suite paper        # generate the paper's standard suite
//
// Without -out the artifact listing and scale report are printed; with
// -out every artifact is written under DIR/<experiment>/<topology>/.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"elba/internal/cim"
	"elba/internal/core"
	"elba/internal/mulini"
	"elba/internal/report"
	"elba/internal/spec"
	"elba/internal/staging"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mulini:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mulini", flag.ContinueOnError)
	backend := fs.String("backend", "shell", "target language: shell or smartfrog")
	outDir := fs.String("out", "", "write generated artifacts under this directory")
	topoFlag := fs.String("topology", "", "generate only this w-a-d topology (e.g. 1-2-2)")
	suite := fs.String("suite", "", "generate a built-in suite instead of a file: paper or reduced")
	novalidate := fs.Bool("novalidate", false, "skip the staging validation pass")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var src string
	switch {
	case *suite == "paper":
		src = core.PaperSuite()
	case *suite == "reduced":
		src = core.ReducedSuite()
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return fmt.Errorf("usage: mulini [flags] SPEC.tbl (or -suite paper|reduced)")
	}

	doc, err := spec.Parse(src)
	if err != nil {
		return err
	}
	catalog, err := cim.LoadCatalog()
	if err != nil {
		return err
	}
	var be mulini.Backend
	switch *backend {
	case "shell":
		be = mulini.ShellBackend{}
	case "smartfrog":
		be = mulini.SmartFrogBackend{}
	default:
		return fmt.Errorf("unknown backend %q", *backend)
	}
	gen, err := mulini.NewGenerator(catalog, be)
	if err != nil {
		return err
	}

	for _, e := range doc.Experiments {
		var deployments []*mulini.Deployment
		if *topoFlag != "" {
			topo, err := spec.ParseTopology(*topoFlag)
			if err != nil {
				return err
			}
			d, err := gen.GenerateOne(e, topo)
			if err != nil {
				return err
			}
			deployments = []*mulini.Deployment{d}
		} else {
			deployments, err = gen.Generate(e)
			if err != nil {
				return err
			}
		}
		scale := mulini.Scale(deployments)
		fmt.Printf("experiment %q (%s backend): %d configuration(s), %d machines, %d script lines, %d config lines\n",
			e.Name, gen.Backend(), scale.Configurations, scale.MachineCount,
			scale.ScriptLines, scale.ConfigLines)
		if !*novalidate && gen.Backend() == "shell" {
			// Staging validation (the Elba project's original purpose):
			// statically verify every generated bundle before use.
			for _, d := range deployments {
				issues := staging.Validate(d.Bundle, "run.sh")
				for _, issue := range issues {
					fmt.Printf("  staging %s: %s\n", d.Topology, issue)
				}
				if errs := staging.Errors(issues); len(errs) > 0 {
					return fmt.Errorf("staging validation failed for %s with %d error(s)", d.Topology, len(errs))
				}
			}
			fmt.Printf("  staging validation: %d configuration(s) clean\n", len(deployments))
		}
		for _, d := range deployments {
			if *outDir != "" {
				if err := writeBundle(*outDir, e.Name, d); err != nil {
					return err
				}
				continue
			}
			fmt.Printf("\n--- configuration %s (%d artifacts) ---\n", d.Topology, d.Bundle.Len())
			fmt.Print(d.Bundle.Summary())
		}
		if *outDir == "" && len(deployments) == 1 {
			fmt.Println()
			fmt.Print(report.Table4Scripts(deployments[0].Bundle))
			fmt.Println()
			fmt.Print(report.Table5Configs(deployments[0].Bundle))
		}
	}
	return nil
}

func writeBundle(root, experiment string, d *mulini.Deployment) error {
	dir := filepath.Join(root, experiment, d.Topology.String())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, path := range d.Bundle.Paths() {
		a, _ := d.Bundle.Get(path)
		mode := os.FileMode(0o644)
		if a.Kind == mulini.Script {
			mode = 0o755
		}
		if err := os.WriteFile(filepath.Join(dir, path), []byte(a.Content), mode); err != nil {
			return err
		}
	}
	fmt.Printf("  wrote %d artifacts to %s\n", d.Bundle.Len(), dir)
	return nil
}
