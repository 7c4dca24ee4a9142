package cim

import "testing"

func loadCatalog(t *testing.T) *Catalog {
	t.Helper()
	c, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCatalogMatchesPaperTable2 checks the built-in hardware catalog
// against the paper's Table 2.
func TestCatalogMatchesPaperTable2(t *testing.T) {
	c := loadCatalog(t)
	if len(c.Platforms) != 3 {
		t.Fatalf("platforms = %d, want 3", len(c.Platforms))
	}
	warp, ok := c.PlatformByName("warp")
	if !ok || len(warp.Pools) != 1 {
		t.Fatalf("warp platform wrong: %+v", warp)
	}
	if warp.Pools[0].CPUMHz != 3060 || warp.Pools[0].NodeCount != 56 || warp.Pools[0].CPUCount != 2 {
		t.Fatalf("warp pool = %+v", warp.Pools[0])
	}
	rohan, _ := c.PlatformByName("rohan")
	if rohan.Pools[0].CPUMHz != 3200 || rohan.Pools[0].MemoryMB != 6144 {
		t.Fatalf("rohan pool = %+v", rohan.Pools[0])
	}
	emulab, _ := c.PlatformByName("emulab")
	if len(emulab.Pools) != 2 {
		t.Fatalf("emulab should have low-end and high-end pools")
	}
	var low, high *NodePool
	for i := range emulab.Pools {
		switch emulab.Pools[i].NodeType {
		case "low-end":
			low = &emulab.Pools[i]
		case "high-end":
			high = &emulab.Pools[i]
		}
	}
	if low == nil || high == nil {
		t.Fatalf("emulab node types missing: %+v", emulab.Pools)
	}
	if low.CPUMHz != 600 || low.MemoryMB != 256 {
		t.Fatalf("emulab low-end = %+v", low)
	}
	if high.CPUMHz != 3000 || high.MemoryMB != 2048 {
		t.Fatalf("emulab high-end = %+v", high)
	}
}

// TestCatalogMatchesPaperTable1 checks the software catalog against the
// paper's Table 1.
func TestCatalogMatchesPaperTable1(t *testing.T) {
	c := loadCatalog(t)
	for _, name := range []string{"mysql", "tomcat", "apache", "jonas", "weblogic", "cjdbc", "sysstat"} {
		if _, ok := c.SoftwareByName(name); !ok {
			t.Errorf("software %q missing from catalog", name)
		}
	}
	wl, _ := c.SoftwareByName("weblogic")
	if wl.Version != "8.1" || wl.Tier != "app" {
		t.Fatalf("weblogic = %+v", wl)
	}
	// RUBiS app tier must offer Tomcat, JOnAS and WebLogic; RUBBoS must
	// not offer the EJB servers.
	rubisApp := c.SoftwareForTier("rubis", "app")
	if len(rubisApp) != 3 {
		t.Fatalf("rubis app-tier packages = %d, want 3", len(rubisApp))
	}
	rubbosApp := c.SoftwareForTier("rubbos", "app")
	if len(rubbosApp) != 1 || rubbosApp[0].Name != "tomcat" {
		t.Fatalf("rubbos app-tier packages = %+v", rubbosApp)
	}
}

func TestCatalogConnectionPoolLimit(t *testing.T) {
	// The app servers carry the 350-session pool that causes high-load
	// experiment failures (DESIGN.md §3).
	c := loadCatalog(t)
	for _, name := range []string{"jonas", "weblogic"} {
		s, _ := c.SoftwareByName(name)
		if s.MaxClients != 350 {
			t.Errorf("%s MaxClients = %d, want 350", name, s.MaxClients)
		}
	}
	// Tomcat (RUBBoS) and MySQL carry no fixed session pool: the paper
	// drives RUBBoS to 5000 users with no Table 7-style failures.
	for _, name := range []string{"tomcat", "mysql"} {
		s, _ := c.SoftwareByName(name)
		if s.MaxClients != 0 {
			t.Errorf("%s should have no session cap in the model", name)
		}
	}
}

func TestCatalogLookupMisses(t *testing.T) {
	c := loadCatalog(t)
	if _, ok := c.PlatformByName("none"); ok {
		t.Errorf("unknown platform found")
	}
	if _, ok := c.SoftwareByName("none"); ok {
		t.Errorf("unknown software found")
	}
	if got := c.SoftwareForTier("rubis", "cache"); got != nil {
		t.Errorf("unknown tier returned packages: %v", got)
	}
}

func TestCatalogFromCustomRepository(t *testing.T) {
	repo := NewRepository()
	err := repo.LoadMOF(`
class CIM_ManagedElement { string Name; };
class CIM_ComputerSystem : CIM_ManagedElement {
	uint32 CPUMHz; uint32 CPUCount = 1; uint32 MemoryMB;
	uint32 NetworkMbps; uint32 DiskRPM; uint32 DiskCacheMB = 8;
};
class Elba_NodePool : CIM_ComputerSystem {
	string Platform; string NodeType; uint32 NodeCount;
};
class Elba_Platform : CIM_ManagedElement { string OS; string KernelVersion; };
class Elba_SoftwarePackage : CIM_ManagedElement {
	string Version; string Tier; string Benchmarks[];
	uint32 MaxClients = 0; uint32 PortBase;
};
instance of Elba_Platform { Name = "lab"; OS = "X"; KernelVersion = "1"; };
instance of Elba_NodePool {
	Name = "lab-n"; Platform = "lab"; NodeType = "x"; NodeCount = 4;
	CPUMHz = 2000; MemoryMB = 512; NetworkMbps = 100; DiskRPM = 7200;
};
`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CatalogFromRepository(repo)
	if err != nil {
		t.Fatal(err)
	}
	lab, ok := c.PlatformByName("lab")
	if !ok || len(lab.Pools) != 1 || lab.Pools[0].CPUMHz != 2000 {
		t.Fatalf("custom catalog wrong: %+v", lab)
	}
}

func TestCatalogRejectsInvalidPool(t *testing.T) {
	repo := NewRepository()
	err := repo.LoadMOF(`
class CIM_ManagedElement { string Name; };
class Elba_NodePool : CIM_ManagedElement {
	string Platform; string NodeType; uint32 NodeCount; uint32 CPUMHz;
};
instance of Elba_NodePool { Name = "p"; Platform = "x"; NodeCount = 0; CPUMHz = 100; };
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CatalogFromRepository(repo); err == nil {
		t.Fatalf("zero NodeCount should be rejected")
	}
}
