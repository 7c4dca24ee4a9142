package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"elba/internal/cim"
)

// eagerCluster is the reference the on-demand cluster must match: it
// creates every node up front and allocates the first free node in pool
// declaration order, then index.
type eagerCluster struct {
	platform string
	nodes    []*Node
}

func newEagerCluster(p cim.Platform) *eagerCluster {
	e := &eagerCluster{platform: p.Name}
	for _, pool := range p.Pools {
		for i := 1; i <= pool.NodeCount; i++ {
			e.nodes = append(e.nodes, &Node{
				name:     fmt.Sprintf("%s-%03d", pool.Name, i),
				pool:     pool,
				services: map[string]ServiceState{},
				files:    map[string]string{},
			})
		}
	}
	return e
}

func (e *eagerCluster) allocate(nodeType string) (*Node, error) {
	for _, n := range e.nodes {
		if n.allocated || (nodeType != "" && n.pool.NodeType != nodeType) {
			continue
		}
		n.allocated = true
		return n, nil
	}
	if nodeType == "" {
		return nil, fmt.Errorf("cluster: %s: no free nodes", e.platform)
	}
	return nil, fmt.Errorf("cluster: %s: no free %q nodes", e.platform, nodeType)
}

func (e *eagerCluster) release(n *Node) {
	for _, own := range e.nodes {
		if own == n {
			*n = Node{
				name:     n.name,
				pool:     n.pool,
				services: map[string]ServiceState{},
				files:    map[string]string{},
			}
			return
		}
	}
}

func (e *eagerCluster) allocated() []*Node {
	var out []*Node
	for _, n := range e.nodes {
		if n.allocated {
			out = append(out, n)
		}
	}
	return out
}

// nodeView is what a caller can observe of an allocated node.
type nodeView struct {
	Name        string
	Degradation float64
	Files       []string
}

func views(nodes []*Node) []nodeView {
	out := make([]nodeView, len(nodes))
	for i, n := range nodes {
		out[i] = nodeView{n.name, n.Degradation(), n.Files()}
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestOnDemandMatchesEagerCluster runs random sequences of typed and
// untyped allocations, releases (of held and of foreign nodes), degrades
// and file writes on the Emulab platform, on the cluster and on the eager
// reference. Every step must give the same node name and error, and the
// same Allocated() order, Size() and free counts.
func TestOnDemandMatchesEagerCluster(t *testing.T) {
	cat, err := cim.LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := cat.PlatformByName("emulab")
	if !ok {
		t.Fatal("emulab platform missing")
	}
	foreign := allocate(t, emulab(t), "")
	types := []string{"low-end", "high-end", "", "hyper-end"}
	factors := []float64{-0.5, 0, 0.3, 0.7, 1, 2}
	exhausted := 0 // failed allocations of a type the platform has
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := newEagerCluster(p)
		if lazy.Size() != len(ref.nodes) {
			t.Fatalf("Size() = %d, eager cluster has %d nodes", lazy.Size(), len(ref.nodes))
		}
		// held[i] and refHeld[i] are the same allocation on each side.
		var held, refHeld []*Node
		// Allocation-heavy seeds exhaust the 128-node pools.
		allocShare := 45 + rng.Intn(40)
		for step := 0; step < 600; step++ {
			op := rng.Intn(100)
			switch {
			case op < allocShare || len(held) == 0:
				nt := types[rng.Intn(len(types))]
				n, err := lazy.Allocate(nt)
				rn, rerr := ref.allocate(nt)
				if errText(err) != errText(rerr) {
					t.Fatalf("seed %d step %d: Allocate(%q) error %q, eager %q", seed, step, nt, errText(err), errText(rerr))
				}
				if err != nil {
					if nt != "hyper-end" {
						exhausted++
					}
					continue
				}
				if n.Name() != rn.Name() {
					t.Fatalf("seed %d step %d: Allocate(%q) = %s, eager %s", seed, step, nt, n.Name(), rn.Name())
				}
				held, refHeld = append(held, n), append(refHeld, rn)
			case op < allocShare+30:
				i := rng.Intn(len(held))
				lazy.Release(held[i])
				ref.release(refHeld[i])
				held = append(held[:i], held[i+1:]...)
				refHeld = append(refHeld[:i], refHeld[i+1:]...)
			case op < allocShare+33:
				lazy.Release(foreign)
				ref.release(foreign)
			case op < allocShare+40:
				i := rng.Intn(len(held))
				path := fmt.Sprintf("/etc/f%d", step)
				held[i].WriteFile(path, "x")
				refHeld[i].WriteFile(path, "x")
			default:
				i := rng.Intn(len(held))
				f := factors[rng.Intn(len(factors))]
				held[i].Degrade(f)
				refHeld[i].Degrade(f)
			}
			if got, want := views(lazy.Allocated()), views(ref.allocated()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Allocated() = %v, eager %v", seed, step, got, want)
			}
			if lazy.Size() != len(ref.nodes) {
				t.Fatalf("seed %d step %d: Size() = %d, want %d", seed, step, lazy.Size(), len(ref.nodes))
			}
			for _, nt := range types[:3] {
				want := 0
				for _, pool := range p.Pools {
					if nt == "" || pool.NodeType == nt {
						want += pool.NodeCount
					}
				}
				for _, n := range refHeld {
					if nt == "" || n.pool.NodeType == nt {
						want--
					}
				}
				if got := lazy.Free(nt); got != want {
					t.Fatalf("seed %d step %d: Free(%q) = %d, want %d", seed, step, nt, got, want)
				}
			}
		}
	}
	if exhausted == 0 {
		t.Fatal("no sequence exhausted a pool")
	}
}

// TestNewCreatesNoNodes pins the point of creating nodes on demand: a
// new cluster holds none, and an allocation creates only the node it
// returns.
func TestNewCreatesNoNodes(t *testing.T) {
	c := emulab(t)
	for i, nodes := range c.created {
		if len(nodes) != 0 {
			t.Fatalf("pool %d has %d nodes before any allocation", i, len(nodes))
		}
	}
	allocate(t, c, "low-end")
	allocate(t, c, "")
	if got := len(c.created[0]); got != 2 {
		t.Fatalf("two allocations created %d low-end nodes, want 2", got)
	}
	if got := len(c.created[1]); got != 0 {
		t.Fatalf("no high-end allocation, but %d high-end nodes exist", got)
	}
}
