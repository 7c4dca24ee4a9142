package cim

import "fmt"

// catalogMOF is the built-in resource model describing the paper's
// experimental environment: the Warp, Rohan, and Emulab platforms
// (Table 2) and the software stacks per benchmark tier (Table 1). It is
// genuine MOF input: the platform catalog below is parsed by this
// package's MOF parser at first use, so the catalog exercises the same
// path a user-supplied resource model would.
const catalogMOF = `
// Elba resource model — hardware platforms (paper Table 2) and software
// configurations (paper Table 1).

class CIM_ManagedElement {
	string Name;
};

class CIM_ComputerSystem : CIM_ManagedElement {
	uint32 CPUMHz;
	uint32 CPUCount = 1;
	uint32 MemoryMB;
	uint32 NetworkMbps;
	uint32 DiskRPM;
	uint32 DiskCacheMB = 8;
	uint32 DiskMBps = 0;   // sustained transfer rate; 0 = unmeasured
};

// Elba_NodePool describes a homogeneous group of cluster nodes.
class Elba_NodePool : CIM_ComputerSystem {
	string Platform;
	string NodeType;
	uint32 NodeCount;
};

class Elba_Platform : CIM_ManagedElement {
	string OS;
	string KernelVersion;
};

class Elba_SoftwarePackage : CIM_ManagedElement {
	string Version;
	string Tier;          // "web", "app", or "db"
	string Benchmarks[];  // benchmarks this package serves
	uint32 MaxClients = 0;
	uint32 PortBase;
};

// ---- Platforms (Table 2) -------------------------------------------------

instance of Elba_Platform {
	Name = "warp";
	OS = "Red Hat Enterprise Linux 4";
	KernelVersion = "2.6.9-5.0.5.EL i386";
};
instance of Elba_NodePool {
	Name = "warp-node";
	Platform = "warp";
	NodeType = "blade";
	NodeCount = 56;
	CPUMHz = 3060;
	CPUCount = 2;
	MemoryMB = 1024;
	NetworkMbps = 1000;
	DiskRPM = 5400;
	DiskMBps = 35;
};

instance of Elba_Platform {
	Name = "rohan";
	OS = "Red Hat Enterprise Linux 4";
	KernelVersion = "2.6.9-5.0.5.EL x86_64";
};
instance of Elba_NodePool {
	Name = "rohan-node";
	Platform = "rohan";
	NodeType = "blade";
	NodeCount = 53;
	CPUMHz = 3200;
	CPUCount = 2;
	MemoryMB = 6144;
	NetworkMbps = 1000;
	DiskRPM = 10000;
	DiskMBps = 70;
};

instance of Elba_Platform {
	Name = "emulab";
	OS = "Fedora Core 4";
	KernelVersion = "2.6.12 i386";
};
instance of Elba_NodePool {
	Name = "emulab-low";
	Platform = "emulab";
	NodeType = "low-end";
	NodeCount = 128;
	CPUMHz = 600;
	CPUCount = 1;
	MemoryMB = 256;
	NetworkMbps = 100;
	DiskRPM = 7200;
	DiskMBps = 45;
};
instance of Elba_NodePool {
	Name = "emulab-high";
	Platform = "emulab";
	NodeType = "high-end";
	NodeCount = 128;
	CPUMHz = 3000;
	CPUCount = 1;
	MemoryMB = 2048;
	NetworkMbps = 1000;
	DiskRPM = 10000;
	DiskMBps = 70;
};

// ---- Software (Table 1) --------------------------------------------------

instance of Elba_SoftwarePackage {
	Name = "mysql";
	Version = "4.1 Max";
	Tier = "db";
	Benchmarks = {"rubis", "rubbos"};
	PortBase = 3306;
};
instance of Elba_SoftwarePackage {
	Name = "cjdbc";
	Version = "2.0.2";
	Tier = "db";
	Benchmarks = {"rubis", "rubbos"};
	PortBase = 25322;
};
// Tomcat fronts RUBBoS's PHP-style servlet pages; the paper drives that
// benchmark to 5000 concurrent users, so its connector is configured
// without the EJB servers' fixed 350-session pool.
instance of Elba_SoftwarePackage {
	Name = "tomcat";
	Version = "5.5";
	Tier = "app";
	Benchmarks = {"rubis", "rubbos"};
	MaxClients = 0;
	PortBase = 8009;
};
instance of Elba_SoftwarePackage {
	Name = "jonas";
	Version = "4.x";
	Tier = "app";
	Benchmarks = {"rubis"};
	MaxClients = 350;
	PortBase = 9000;
};
instance of Elba_SoftwarePackage {
	Name = "weblogic";
	Version = "8.1";
	Tier = "app";
	Benchmarks = {"rubis"};
	MaxClients = 350;
	PortBase = 7001;
};
instance of Elba_SoftwarePackage {
	Name = "apache";
	Version = "2.0";
	Tier = "web";
	Benchmarks = {"rubis", "rubbos"};
	PortBase = 80;
};
instance of Elba_SoftwarePackage {
	Name = "sysstat";
	Version = "5.0.5";
	Tier = "web";
	Benchmarks = {"rubis", "rubbos"};
	PortBase = 0;
};
`

// NodePool is a typed view of an Elba_NodePool instance.
type NodePool struct {
	Name        string
	Platform    string
	NodeType    string
	NodeCount   int
	CPUMHz      int
	CPUCount    int
	MemoryMB    int
	NetworkMbps int
	DiskRPM     int
	DiskMBps    int
}

// Platform is a typed view of an Elba_Platform instance with its pools.
type Platform struct {
	Name   string
	OS     string
	Kernel string
	Pools  []NodePool
}

// SoftwarePackage is a typed view of an Elba_SoftwarePackage instance.
type SoftwarePackage struct {
	Name       string
	Version    string
	Tier       string
	Benchmarks []string
	MaxClients int
	PortBase   int
}

// Catalog bundles the typed views of the built-in resource model.
type Catalog struct {
	Platforms []Platform
	Software  []SoftwarePackage
}

// LoadCatalog parses the built-in MOF catalog. It is the programmatic
// entry point for the paper's Tables 1 and 2.
func LoadCatalog() (*Catalog, error) {
	repo := NewRepository()
	if err := repo.LoadMOF(catalogMOF); err != nil {
		return nil, fmt.Errorf("cim: built-in catalog: %w", err)
	}
	return CatalogFromRepository(repo)
}

// CatalogFromRepository builds typed views from any repository that
// defines the Elba classes, allowing user-supplied MOF to replace or
// extend the built-in environment.
func CatalogFromRepository(repo *Repository) (*Catalog, error) {
	c := &Catalog{}
	pools := map[string][]NodePool{}
	for _, in := range repo.InstancesOf("Elba_NodePool") {
		p := NodePool{
			Name:        in.GetString("Name"),
			Platform:    in.GetString("Platform"),
			NodeType:    in.GetString("NodeType"),
			NodeCount:   int(in.GetInt("NodeCount")),
			CPUMHz:      int(in.GetInt("CPUMHz")),
			CPUCount:    int(in.GetInt("CPUCount")),
			MemoryMB:    int(in.GetInt("MemoryMB")),
			NetworkMbps: int(in.GetInt("NetworkMbps")),
			DiskRPM:     int(in.GetInt("DiskRPM")),
			DiskMBps:    int(in.GetInt("DiskMBps")),
		}
		if p.Name == "" || p.Platform == "" {
			return nil, fmt.Errorf("cim: node pool at line %d missing Name/Platform", in.Line)
		}
		if p.CPUMHz <= 0 || p.NodeCount <= 0 {
			return nil, fmt.Errorf("cim: node pool %q needs positive CPUMHz and NodeCount", p.Name)
		}
		pools[p.Platform] = append(pools[p.Platform], p)
	}
	for _, in := range repo.InstancesOf("Elba_Platform") {
		name := in.GetString("Name")
		c.Platforms = append(c.Platforms, Platform{
			Name:   name,
			OS:     in.GetString("OS"),
			Kernel: in.GetString("KernelVersion"),
			Pools:  pools[name],
		})
	}
	for _, in := range repo.InstancesOf("Elba_SoftwarePackage") {
		var benches []string
		if v, ok := in.Get("Benchmarks"); ok && v.Kind == ArrayValue {
			for _, e := range v.Array {
				benches = append(benches, e.S)
			}
		}
		c.Software = append(c.Software, SoftwarePackage{
			Name:       in.GetString("Name"),
			Version:    in.GetString("Version"),
			Tier:       in.GetString("Tier"),
			Benchmarks: benches,
			MaxClients: int(in.GetInt("MaxClients")),
			PortBase:   int(in.GetInt("PortBase")),
		})
	}
	return c, nil
}

// PlatformByName finds a platform.
func (c *Catalog) PlatformByName(name string) (Platform, bool) {
	for _, p := range c.Platforms {
		if p.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// SoftwareByName finds a software package.
func (c *Catalog) SoftwareByName(name string) (SoftwarePackage, bool) {
	for _, s := range c.Software {
		if s.Name == name {
			return s, true
		}
	}
	return SoftwarePackage{}, false
}

// SoftwareForTier lists packages serving a benchmark's tier.
func (c *Catalog) SoftwareForTier(benchmark, tier string) []SoftwarePackage {
	var out []SoftwarePackage
	for _, s := range c.Software {
		if s.Tier != tier {
			continue
		}
		for _, b := range s.Benchmarks {
			if b == benchmark {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
