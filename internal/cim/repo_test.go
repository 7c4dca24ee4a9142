package cim

import (
	"strings"
	"testing"
)

const repoTestMOF = `
class Base { string Name; uint32 Shared = 7; };
class Mid : Base { uint32 MidProp; };
class Leaf : Mid { string LeafProp = "dflt"; };
instance of Leaf { Name = "l1"; MidProp = 3; };
instance of Mid { Name = "m1"; MidProp = 4; };
instance of Base { Name = "b1"; };
`

func newTestRepo(t *testing.T) *Repository {
	t.Helper()
	r := NewRepository()
	if err := r.LoadMOF(repoTestMOF); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRepositoryInheritanceQuery(t *testing.T) {
	r := newTestRepo(t)
	if got := len(r.InstancesOf("Base")); got != 3 {
		t.Fatalf("InstancesOf(Base) = %d, want 3", got)
	}
	if got := len(r.InstancesOf("Mid")); got != 2 {
		t.Fatalf("InstancesOf(Mid) = %d, want 2", got)
	}
	if got := len(r.InstancesOf("Leaf")); got != 1 {
		t.Fatalf("InstancesOf(Leaf) = %d, want 1", got)
	}
	if len(r.instances) != 3 {
		t.Fatalf("Len = %d", len(r.instances))
	}
}

func TestRepositoryDefaultsApplied(t *testing.T) {
	r := newTestRepo(t)
	leaf := r.InstancesOf("Leaf")[0]
	if leaf.GetString("LeafProp") != "dflt" {
		t.Fatalf("class default not applied: %+v", leaf.Props)
	}
	if leaf.GetInt("Shared") != 7 {
		t.Fatalf("inherited default not applied")
	}
}

func TestRepositoryValidatesUnknownProperty(t *testing.T) {
	r := NewRepository()
	err := r.LoadMOF(`class C { string Name; }; instance of C { Bogus = 1; };`)
	if err == nil || !strings.Contains(err.Error(), "unknown property") {
		t.Fatalf("expected unknown-property error, got %v", err)
	}
}

func TestRepositoryValidatesTypes(t *testing.T) {
	r := NewRepository()
	err := r.LoadMOF(`class C { uint32 N; }; instance of C { N = "nope"; };`)
	if err == nil || !strings.Contains(err.Error(), "string value for uint32") {
		t.Fatalf("expected type error, got %v", err)
	}
	// real accepts int
	r2 := NewRepository()
	if err := r2.LoadMOF(`class C { real32 X; }; instance of C { X = 3; };`); err != nil {
		t.Fatalf("real should accept integer literal: %v", err)
	}
	// typed arrays
	r3 := NewRepository()
	err = r3.LoadMOF(`class C { string Tags[]; }; instance of C { Tags = {1, 2}; };`)
	if err == nil {
		t.Fatalf("int array for string[] should error")
	}
}

func TestRepositoryRejectsUnknownClass(t *testing.T) {
	r := NewRepository()
	if err := r.LoadMOF(`instance of Nope { };`); err == nil {
		t.Fatalf("unknown class should error")
	}
	if err := r.LoadMOF(`class C : Nope { string Name; };`); err == nil {
		t.Fatalf("unknown superclass should error")
	}
}

func TestRepositoryRejectsDuplicateClass(t *testing.T) {
	r := NewRepository()
	if err := r.LoadMOF(`class C { string Name; };`); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadMOF(`class C { string Name; };`); err == nil {
		t.Fatalf("duplicate class should error")
	}
}

func TestRepositoryClassNames(t *testing.T) {
	r := newTestRepo(t)
	names := r.ClassNames()
	if len(names) != 3 || names[0] != "Base" || names[2] != "Mid" {
		t.Fatalf("ClassNames = %v", names)
	}
	if _, ok := r.classes["Leaf"]; !ok {
		t.Fatalf("Class(Leaf) not found")
	}
}

// TestWriteMOFRoundTrip: serializing any repository and re-parsing it
// yields the same classes and instances.
func TestWriteMOFRoundTrip(t *testing.T) {
	r := newTestRepo(t)
	text := r.WriteMOF()
	r2 := NewRepository()
	if err := r2.LoadMOF(text); err != nil {
		t.Fatalf("round trip parse failed: %v\n%s", err, text)
	}
	if len(r2.ClassNames()) != len(r.ClassNames()) {
		t.Fatalf("classes lost: %v vs %v", r2.ClassNames(), r.ClassNames())
	}
	if len(r2.instances) != len(r.instances) {
		t.Fatalf("instances lost: %d vs %d", len(r2.instances), len(r.instances))
	}
	leaf := r2.InstancesOf("Leaf")[0]
	if leaf.GetString("Name") != "l1" || leaf.GetInt("MidProp") != 3 {
		t.Fatalf("instance data lost: %+v", leaf.Props)
	}
	// Defaults survive (they were applied at first load, serialized as
	// explicit values).
	if leaf.GetString("LeafProp") != "dflt" || leaf.GetInt("Shared") != 7 {
		t.Fatalf("defaults lost: %+v", leaf.Props)
	}
}

// TestBuiltInCatalogRoundTrips serializes the whole built-in catalog.
func TestBuiltInCatalogRoundTrips(t *testing.T) {
	cat, err := LoadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	text := cat.repo.WriteMOF()
	r2 := NewRepository()
	if err := r2.LoadMOF(text); err != nil {
		t.Fatalf("catalog round trip failed: %v", err)
	}
	cat2, err := CatalogFromRepository(r2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat2.Platforms) != len(cat.Platforms) || len(cat2.Software) != len(cat.Software) {
		t.Fatalf("catalog shrank: %d/%d platforms, %d/%d packages",
			len(cat2.Platforms), len(cat.Platforms), len(cat2.Software), len(cat.Software))
	}
	p, ok := cat2.PlatformByName("emulab")
	if !ok || len(p.Pools) != 2 {
		t.Fatalf("emulab lost in round trip: %+v", p)
	}
	wl, _ := cat2.SoftwareByName("weblogic")
	if wl.MaxClients != 350 || len(wl.Benchmarks) != 1 {
		t.Fatalf("weblogic lost fields: %+v", wl)
	}
}
