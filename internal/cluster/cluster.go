// Package cluster provides the simulated testbed that stands in for the
// paper's physical Warp, Rohan, and Emulab clusters. A Cluster
// materializes nodes from a CIM platform description, each the first time
// an allocation needs it. Each node tracks the software lifecycle state
// (installed packages, written configuration files, running services)
// that the deployment engine mutates while executing Mulini-generated
// scripts. The simulation kernel consumes the node's CPU characteristics
// through Speed and Cores.
package cluster

import (
	"fmt"
	"strings"

	"elba/internal/cim"
)

// ReferenceMHz is the CPU frequency at which benchmark service demands
// are specified.
const ReferenceMHz = 3000

// ReferenceDiskMBps is the disk bandwidth at which disk service demands
// are specified: the 10k RPM SCSI disks of the Rohan blades and the
// Emulab high-end nodes, Table 2's fastest spindles.
const ReferenceDiskMBps = 70

// ServiceState tracks a deployed service's lifecycle on a node.
type ServiceState int

// Service lifecycle states, in order.
const (
	Absent ServiceState = iota
	Installed
	Configured
	Running
	Stopped
)

// String names the state.
func (s ServiceState) String() string {
	switch s {
	case Absent:
		return "absent"
	case Installed:
		return "installed"
	case Configured:
		return "configured"
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Node is one simulated machine.
type Node struct {
	name string
	pool cim.NodePool

	owner     *Cluster
	allocated bool

	degradation float64 // effective-speed multiplier in (0, 1); 0 means full speed

	services map[string]ServiceState
	files    map[string]string
}

// Name reports the node's hostname.
func (n *Node) Name() string { return n.name }

// Pool reports the node pool (hardware characteristics) the node belongs
// to.
func (n *Node) Pool() cim.NodePool { return n.pool }

// Speed reports the node's rated CPU frequency relative to the reference.
func (n *Node) Speed() float64 { return float64(n.pool.CPUMHz) / ReferenceMHz }

// Degradation reports the node's effective-speed multiplier (1 = full
// rated speed).
func (n *Node) Degradation() float64 {
	if n.degradation == 0 {
		return 1
	}
	return n.degradation
}

// EffectiveSpeed is the speed the simulation kernel consumes: the rated
// speed scaled by the node's degradation factor. For a healthy node it
// equals Speed.
func (n *Node) EffectiveSpeed() float64 { return n.Speed() * n.Degradation() }

// DiskSpeed reports the node's rated disk bandwidth relative to the
// reference spindle. Pools that declare no DiskMBps report 1 (a
// reference-speed disk), so disk demands stay meaningful under
// user-supplied catalogs that predate the property.
func (n *Node) DiskSpeed() float64 {
	if n.pool.DiskMBps <= 0 {
		return 1
	}
	return float64(n.pool.DiskMBps) / ReferenceDiskMBps
}

// EffectiveDiskSpeed scales the rated disk speed by the node's
// degradation factor — a degraded node drags its spindle down with its
// CPU (thermal throttling and failing disks travel together in Table 2's
// failure anecdotes).
func (n *Node) EffectiveDiskSpeed() float64 { return n.DiskSpeed() * n.Degradation() }

// NetBytesPerSec reports the node's link capacity in bytes per second,
// or 0 when the pool declares no NetworkMbps.
func (n *Node) NetBytesPerSec() float64 {
	if n.pool.NetworkMbps <= 0 {
		return 0
	}
	return float64(n.pool.NetworkMbps) * 1e6 / 8
}

// Degrade slows the node to the given effective-speed factor in (0, 1):
// a slow node (thermal throttling, a failing disk, noisy neighbours).
// Factors outside that range restore the node instead.
func (n *Node) Degrade(factor float64) {
	if factor <= 0 || factor >= 1 {
		n.Restore()
		return
	}
	n.degradation = factor
}

// Restore returns the node to its pool's rated speed.
func (n *Node) Restore() { n.degradation = 0 }

// Cores reports the number of CPUs.
func (n *Node) Cores() int {
	if n.pool.CPUCount < 1 {
		return 1
	}
	return n.pool.CPUCount
}

// Allocated reports whether the node is held by an experiment.
func (n *Node) Allocated() bool { return n.allocated }

// State reports a service's lifecycle state.
func (n *Node) State(service string) ServiceState { return n.services[service] }

// Install places a software package on the node.
func (n *Node) Install(pkg string) error {
	if n.services[pkg] != Absent {
		return fmt.Errorf("cluster: %s: %s already installed", n.name, pkg)
	}
	n.services[pkg] = Installed
	return nil
}

// Configure marks a package configured. Configuration may be repeated
// (scripts reconfigure between trials) but requires prior installation.
func (n *Node) Configure(pkg string) error {
	switch n.services[pkg] {
	case Absent:
		return fmt.Errorf("cluster: %s: cannot configure %s before installing it", n.name, pkg)
	case Running:
		return fmt.Errorf("cluster: %s: cannot configure %s while it is running", n.name, pkg)
	}
	n.services[pkg] = Configured
	return nil
}

// Start ignites a configured service.
func (n *Node) Start(pkg string) error {
	switch n.services[pkg] {
	case Configured, Stopped:
		n.services[pkg] = Running
		return nil
	case Running:
		return fmt.Errorf("cluster: %s: %s is already running", n.name, pkg)
	default:
		return fmt.Errorf("cluster: %s: cannot start %s from state %s", n.name, pkg, n.services[pkg])
	}
}

// Stop halts a running service.
func (n *Node) Stop(pkg string) error {
	if n.services[pkg] != Running {
		return fmt.Errorf("cluster: %s: cannot stop %s from state %s", n.name, pkg, n.services[pkg])
	}
	n.services[pkg] = Stopped
	return nil
}

// WriteFile records a configuration file on the node (the simulated
// equivalent of Mulini pushing workers2.properties and friends).
func (n *Node) WriteFile(path, content string) {
	n.files[path] = content
}

// ReadFile returns a configuration file's content.
func (n *Node) ReadFile(path string) (string, bool) {
	c, ok := n.files[path]
	return c, ok
}

// reset returns the node to pristine state on release. Its speed is
// restored too: a release models handing the machine back to the testbed
// operator, who fixes it before the next allocation.
func (n *Node) reset() {
	n.allocated = false
	n.degradation = 0
	clear(n.services)
	clear(n.files)
}

// Cluster is a set of nodes materialized from a CIM platform. Nodes are
// created on demand: node pool-NNN exists once an allocation has reached
// it, and a node no allocation has reached is free and pristine, exactly
// like a released one.
type Cluster struct {
	platform cim.Platform
	size     int
	created  [][]*Node // per pool, the nodes created so far, in index order
}

// New materializes a cluster from a platform description: one node per
// unit of each pool's NodeCount, named pool-001, pool-002, ...
func New(platform cim.Platform) (*Cluster, error) {
	if len(platform.Pools) == 0 {
		return nil, fmt.Errorf("cluster: platform %q has no node pools", platform.Name)
	}
	c := &Cluster{platform: platform, created: make([][]*Node, len(platform.Pools))}
	for _, pool := range platform.Pools {
		c.size += max(pool.NodeCount, 0)
	}
	return c, nil
}

// Size reports the total number of nodes.
func (c *Cluster) Size() int { return c.size }

// Allocate reserves the first free node of the given type ("" = any).
// Allocation order is deterministic (pool declaration order, then index).
func (c *Cluster) Allocate(nodeType string) (*Node, error) {
	for i, pool := range c.platform.Pools {
		if nodeType != "" && pool.NodeType != nodeType {
			continue
		}
		if node := c.firstFree(i); node != nil {
			node.allocated = true
			return node, nil
		}
	}
	if nodeType == "" {
		return nil, fmt.Errorf("cluster: %s: no free nodes", c.platform.Name)
	}
	return nil, fmt.Errorf("cluster: %s: no free %q nodes", c.platform.Name, nodeType)
}

// firstFree returns pool i's free node of lowest index: a created one, or
// else the next node, created now. It returns nil when every node of the
// pool is allocated.
func (c *Cluster) firstFree(i int) *Node {
	for _, node := range c.created[i] {
		if !node.allocated {
			return node
		}
	}
	pool := c.platform.Pools[i]
	next := len(c.created[i]) + 1
	if next > pool.NodeCount {
		return nil
	}
	node := &Node{
		name:     fmt.Sprintf("%s-%03d", pool.Name, next),
		pool:     pool,
		owner:    c,
		services: map[string]ServiceState{},
		files:    map[string]string{},
	}
	c.created[i] = append(c.created[i], node)
	return node
}

// Release returns a node to the pool and wipes its state.
func (c *Cluster) Release(n *Node) {
	if n.owner != c {
		return // not ours; ignore
	}
	n.reset()
}

// Allocated lists currently allocated nodes in allocation order.
func (c *Cluster) Allocated() []*Node {
	var out []*Node
	for _, nodes := range c.created {
		for _, n := range nodes {
			if n.allocated {
				out = append(out, n)
			}
		}
	}
	return out
}

// String summarizes the cluster.
func (c *Cluster) String() string {
	var parts []string
	for _, pool := range c.platform.Pools {
		parts = append(parts, fmt.Sprintf("%s×%d@%dMHz", pool.Name, pool.NodeCount, pool.CPUMHz))
	}
	return fmt.Sprintf("cluster(%s: %s)", c.platform.Name, strings.Join(parts, ", "))
}
