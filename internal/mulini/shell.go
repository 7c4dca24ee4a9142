package mulini

import (
	"fmt"
	"strings"
)

// ShellBackend renders a deployment into bash-style scripts whose
// operative lines speak the elbactl protocol (see Step and Walk). This
// is the paper's primary target language: "typical shell-style scripting
// languages such as bash shell script for Unix systems" (§II).
type ShellBackend struct{}

// Name identifies the backend.
func (ShellBackend) Name() string { return "shell" }

// header emits the common script prologue.
func header(b *strings.Builder, path, purpose string) {
	b.WriteString("#!/bin/bash\n# ")
	b.WriteString(path)
	b.WriteString("\n# ")
	b.WriteString(purpose)
	b.WriteString(`
# Generated by Mulini — DO NOT EDIT; regenerate from the TBL spec.
set -e
set -o pipefail
ELBA_HOME=${ELBA_HOME:-/opt/elba}
LOG=$ELBA_HOME/log/$(basename "$0").log
exec > >(tee -a "$LOG") 2>&1
echo "[elba] $(date) starting $0"
`)
}

func footer(b *strings.Builder) {
	b.WriteString("echo \"[elba] $(date) finished $0\"\nexit 0\n")
}

// Render produces the deployment's script and configuration bundle.
func (ShellBackend) Render(d *Deployment) (*Bundle, error) {
	bundle := NewBundle()
	add := func(a Artifact) error { return bundle.Add(a) }

	// --- vendor configuration files (paper Table 5) ---
	if err := add(Artifact{
		Path: "workers2.properties", Kind: Config,
		Comment: "Configures Apache to connect to application server tier",
		Content: renderWorkers2(d),
	}); err != nil {
		return nil, err
	}
	if len(d.Roles("db")) > 1 {
		if err := add(Artifact{
			Path: "mysqldb-raidb1-elba.xml", Kind: Config,
			Comment: "Configures C-JDBC controller to connect to databases",
			Content: renderCJDBC(d),
		}); err != nil {
			return nil, err
		}
	}
	if err := add(Artifact{
		Path: "monitorlocal.properties", Kind: Config,
		Comment: "Configures JimysProbe monitor",
		Content: renderMonitorLocal(d),
	}); err != nil {
		return nil, err
	}
	for _, a := range d.Assignments {
		if err := add(Artifact{
			Path:    fmt.Sprintf("monitor_%s.properties", strings.ToLower(a.Role)),
			Kind:    Config,
			Comment: fmt.Sprintf("Host-customized monitor configuration for %s", a.Role),
			Content: renderHostMonitor(d, a),
		}); err != nil {
			return nil, err
		}
		switch a.Tier {
		case "app":
			if err := add(Artifact{
				Path: a.Role + "_server.properties", Kind: Config,
				Comment: fmt.Sprintf("Configures %s application server", a.Role),
				Content: renderAppServerConf(d, a),
			}); err != nil {
				return nil, err
			}
		case "db":
			if err := add(Artifact{
				Path: a.Role + "_my.cnf", Kind: Config,
				Comment: fmt.Sprintf("Configures MySQL backend %s", a.Role),
				Content: renderMySQLConf(d, a),
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := add(Artifact{
		Path: d.Experiment.Benchmark + "_client.properties", Kind: Data,
		Comment: "Parameterizes the generated workload driver",
		Content: renderDriverProperties(d),
	}); err != nil {
		return nil, err
	}

	// --- per-role lifecycle scripts (paper Table 4) ---
	for _, a := range d.Assignments {
		for _, art := range roleScripts(d, a) {
			if err := add(art); err != nil {
				return nil, err
			}
		}
	}

	// --- master scripts ---
	if err := add(Artifact{
		Path: "run.sh", Kind: Script,
		Comment: "Calls all the other subscripts to install, configure and execute the experiment",
		Content: renderRunSh(d),
	}); err != nil {
		return nil, err
	}
	if err := add(Artifact{
		Path: "teardown.sh", Kind: Script,
		Comment: "Stops all services and releases the allocated nodes",
		Content: renderTeardownSh(d),
	}); err != nil {
		return nil, err
	}
	return bundle, nil
}

// serverPackages lists a role's packages excluding the monitor (sysstat
// is handled by the SYS_MON scripts, as in the paper's Table 4).
func serverPackages(a Assignment) []Pkg {
	var out []Pkg
	for _, p := range a.Packages {
		if p.Name != "sysstat" {
			out = append(out, p)
		}
	}
	return out
}

// roleScripts renders the install/configure/ignition/stop quartet for one
// role plus its SYS_MON monitor pair.
func roleScripts(d *Deployment, a Assignment) []Artifact {
	var out []Artifact
	pkgs := serverPackages(a)

	// install
	var b strings.Builder
	header(&b, a.Role+"_install.sh", fmt.Sprintf("Installs %s (%s tier)", a.Role, a.Tier))
	fmt.Fprintf(&b, "mkdir -p \"$ELBA_HOME/pkg\" \"$ELBA_HOME/log\"\n")
	for _, p := range pkgs {
		fmt.Fprintf(&b, "# package %s %s\n", p.Name, p.Version)
		fmt.Fprintf(&b, "echo \"[elba] installing %s-%s on role %s\"\n", p.Name, p.Version, a.Role)
		fmt.Fprintf(&b, "test -f \"$ELBA_HOME/dist/%s-%s.tar.gz\" || fetch_dist %s %s\n", p.Name, safeVersion(p.Version), p.Name, safeVersion(p.Version))
		fmt.Fprintf(&b, "tar xzf \"$ELBA_HOME/dist/%s-%s.tar.gz\" -C \"$ELBA_HOME/pkg\"\n", p.Name, safeVersion(p.Version))
		fmt.Fprintf(&b, "elbactl install --role %s --package %s --version %q\n", a.Role, p.Name, p.Version)
	}
	footer(&b)
	out = append(out, Artifact{
		Path: a.Role + "_install.sh", Kind: Script,
		Comment: fmt.Sprintf("Installs %s server #%d", pkgLabel(a), a.Index),
		Content: b.String(),
	})

	// configure
	b.Reset()
	header(&b, a.Role+"_configure.sh", fmt.Sprintf("Configures %s", a.Role))
	for _, push := range configPushes(d, a) {
		fmt.Fprintf(&b, "echo \"[elba] pushing %s to %s:%s\"\n", push.artifact, a.Role, push.dest)
		fmt.Fprintf(&b, "elbactl push --role %s --file %s --artifact %s\n", a.Role, push.dest, push.artifact)
	}
	for _, p := range pkgs {
		fmt.Fprintf(&b, "elbactl configure --role %s --package %s\n", a.Role, p.Name)
	}
	footer(&b)
	out = append(out, Artifact{
		Path: a.Role + "_configure.sh", Kind: Script,
		Comment: fmt.Sprintf("Configures %s server #%d", pkgLabel(a), a.Index),
		Content: b.String(),
	})

	// ignition
	b.Reset()
	header(&b, a.Role+"_ignition.sh", fmt.Sprintf("Starts %s", a.Role))
	for _, p := range pkgs {
		fmt.Fprintf(&b, "elbactl start --role %s --service %s\n", a.Role, p.Name)
	}
	footer(&b)
	out = append(out, Artifact{
		Path: a.Role + "_ignition.sh", Kind: Script,
		Comment: fmt.Sprintf("Starts %s server #%d", pkgLabel(a), a.Index),
		Content: b.String(),
	})

	// stop
	b.Reset()
	header(&b, a.Role+"_stop.sh", fmt.Sprintf("Stops %s", a.Role))
	for i := len(pkgs) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "elbactl stop --role %s --service %s\n", a.Role, pkgs[i].Name)
	}
	footer(&b)
	out = append(out, Artifact{
		Path: a.Role + "_stop.sh", Kind: Script,
		Comment: fmt.Sprintf("Stops %s server #%d", pkgLabel(a), a.Index),
		Content: b.String(),
	})

	// system monitor install + ignition (paper: SYS_MON_EJB1_install.sh)
	b.Reset()
	header(&b, "SYS_MON_"+a.Role+"_install.sh", fmt.Sprintf("Installs system monitoring tools on %s", a.Role))
	fmt.Fprintf(&b, "elbactl install --role %s --package sysstat --version \"5.0.5\"\n", a.Role)
	fmt.Fprintf(&b, "elbactl push --role %s --file /opt/sysstat/monitor.properties --artifact monitor_%s.properties\n",
		a.Role, strings.ToLower(a.Role))
	fmt.Fprintf(&b, "elbactl configure --role %s --package sysstat\n", a.Role)
	footer(&b)
	out = append(out, Artifact{
		Path: "SYS_MON_" + a.Role + "_install.sh", Kind: Script,
		Comment: fmt.Sprintf("Installs system monitoring tools on %s", a.Role),
		Content: b.String(),
	})

	b.Reset()
	header(&b, "SYS_MON_"+a.Role+"_ignition.sh", fmt.Sprintf("Starts system monitoring tools on %s", a.Role))
	fmt.Fprintf(&b, "elbactl start --role %s --service sysstat\n", a.Role)
	footer(&b)
	out = append(out, Artifact{
		Path: "SYS_MON_" + a.Role + "_ignition.sh", Kind: Script,
		Comment: fmt.Sprintf("Starts system monitoring tools on %s", a.Role),
		Content: b.String(),
	})
	return out
}

func pkgLabel(a Assignment) string {
	pkgs := serverPackages(a)
	if len(pkgs) == 0 {
		return a.Role
	}
	return strings.ToUpper(pkgs[0].Name)
}

func safeVersion(v string) string {
	return strings.ReplaceAll(v, " ", "_")
}

// configPush binds a bundle artifact to its destination path on a node.
type configPush struct {
	dest     string
	artifact string
}

// configPushes lists the configuration files a role receives.
func configPushes(d *Deployment, a Assignment) []configPush {
	var out []configPush
	switch a.Tier {
	case "web":
		out = append(out, configPush{"/etc/httpd/conf/workers2.properties", "workers2.properties"})
	case "app":
		out = append(out, configPush{
			fmt.Sprintf("/opt/%s/conf/server.properties", d.AppServerPkg),
			a.Role + "_server.properties",
		})
	case "db":
		out = append(out, configPush{"/etc/my.cnf", a.Role + "_my.cnf"})
		if a.Index == 1 && len(d.Roles("db")) > 1 {
			out = append(out, configPush{"/opt/cjdbc/config/mysqldb-raidb1-elba.xml", "mysqldb-raidb1-elba.xml"})
		}
	case "client":
		out = append(out, configPush{
			fmt.Sprintf("/opt/client/%s_client.properties", d.Experiment.Benchmark),
			d.Experiment.Benchmark + "_client.properties",
		})
		out = append(out, configPush{"/opt/client/monitorlocal.properties", "monitorlocal.properties"})
	}
	return out
}

// renderRunSh emits the master script that sequences allocation, install,
// configuration, and ignition across every role, database tier first.
func renderRunSh(d *Deployment) string {
	var b strings.Builder
	header(&b, "run.sh", fmt.Sprintf("Master driver for experiment %q, configuration %s",
		d.Experiment.Name, d.Topology))
	fmt.Fprintf(&b, "\n# ---- Phase 1: node allocation -------------------------------------\n")
	for _, a := range d.Assignments {
		if a.NodeType != "" {
			fmt.Fprintf(&b, "elbactl allocate --role %s --type %s\n", a.Role, a.NodeType)
		} else {
			fmt.Fprintf(&b, "elbactl allocate --role %s\n", a.Role)
		}
	}
	fmt.Fprintf(&b, "\n# ---- Phase 2: software installation --------------------------------\n")
	for _, a := range d.Assignments {
		fmt.Fprintf(&b, "bash %s_install.sh\n", a.Role)
		fmt.Fprintf(&b, "bash SYS_MON_%s_install.sh\n", a.Role)
	}
	fmt.Fprintf(&b, "\n# ---- Phase 3: configuration ----------------------------------------\n")
	for _, a := range d.Assignments {
		fmt.Fprintf(&b, "bash %s_configure.sh\n", a.Role)
	}
	fmt.Fprintf(&b, "\n# ---- Phase 4: ignition (db, app, web, monitors, client) ------------\n")
	for _, tier := range []string{"db", "app", "web"} {
		for _, role := range d.Roles(tier) {
			fmt.Fprintf(&b, "bash %s_ignition.sh\n", role)
		}
	}
	for _, a := range d.Assignments {
		fmt.Fprintf(&b, "bash SYS_MON_%s_ignition.sh\n", a.Role)
	}
	for _, role := range d.Roles("client") {
		fmt.Fprintf(&b, "bash %s_ignition.sh\n", role)
	}
	fmt.Fprintf(&b, "\necho \"[elba] deployment %s is up; trials may begin\"\n", d.Topology)
	footer(&b)
	return b.String()
}

// renderTeardownSh emits the reverse sequence: stop everything, release
// every node.
func renderTeardownSh(d *Deployment) string {
	var b strings.Builder
	header(&b, "teardown.sh", "Stops all services and releases nodes")
	for _, tier := range []string{"client", "web", "app", "db"} {
		for _, role := range d.Roles(tier) {
			fmt.Fprintf(&b, "bash %s_stop.sh\n", role)
		}
	}
	for _, a := range d.Assignments {
		fmt.Fprintf(&b, "elbactl stop --role %s --service sysstat\n", a.Role)
	}
	for _, a := range d.Assignments {
		fmt.Fprintf(&b, "elbactl release --role %s\n", a.Role)
	}
	footer(&b)
	return b.String()
}
