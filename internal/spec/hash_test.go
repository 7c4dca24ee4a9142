package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCanonicalHashRoundTripsShippedSpecs pins the canonical hash
// against drift: for every spec under specs/, String() must re-parse to
// an experiment whose rendering — and therefore whose hash — is
// byte-identical. A parser or String change that breaks the fixpoint
// would silently split the campaign cache's address space; this test
// makes it loud instead.
func TestCanonicalHashRoundTripsShippedSpecs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped specs found under specs/")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Parse(string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, e := range doc.Experiments {
			canon := e.String()
			doc2, err := Parse(canon)
			if err != nil {
				t.Fatalf("%s/%s: canonical form does not re-parse: %v", path, e.Name, err)
			}
			if len(doc2.Experiments) != 1 || doc2.Experiments[0].Name != e.Name {
				t.Fatalf("%s/%s: experiment lost in round trip", path, e.Name)
			}
			e2 := doc2.Experiments[0]
			if got := e2.String(); got != canon {
				t.Fatalf("%s/%s: String not a fixpoint:\nfirst:\n%s\nsecond:\n%s",
					path, e.Name, canon, got)
			}
			if e2.CanonicalHash() != e.CanonicalHash() {
				t.Fatalf("%s/%s: hash changed across a round trip", path, e.Name)
			}
			if e2.TrialHash() != e.TrialHash() {
				t.Fatalf("%s/%s: trial hash changed across a round trip", path, e.Name)
			}
		}
	}
}

// hashBase is a minimal experiment every optional clause can be toggled
// onto.
const hashBase = `experiment "hash-base" {
	benchmark rubis; platform emulab; appserver jonas;
	workload { users 100 to 500 step 100; writeratio 15; }
}`

// TestCanonicalHashDistinguishesClauses toggles each optional clause on
// the base experiment and asserts every variant hashes differently from
// the base and from every other variant: semantically distinct specs
// must not collide into one cache address.
func TestCanonicalHashDistinguishesClauses(t *testing.T) {
	variants := map[string]string{
		"base": hashBase,
		"appserver": strings.Replace(hashBase, "appserver jonas;",
			"appserver weblogic;", 1),
		"mix": strings.Replace(
			strings.Replace(hashBase, "benchmark rubis; platform emulab; appserver jonas;",
				"benchmark rubbos; platform emulab; mix read-only;", 1),
			"writeratio 15;", "", 1),
		"topology": strings.Replace(hashBase, "workload",
			"topology { web 1; app 2; db 1; }\nworkload", 1),
		"topologies": strings.Replace(hashBase, "workload",
			"topologies 1-1-1, 1-2-1;\nworkload", 1),
		"users": strings.Replace(hashBase, "users 100 to 500 step 100;",
			"users 100 to 600 step 100;", 1),
		"usersexpr": strings.Replace(hashBase, "users 100 to 500 step 100;",
			"users 100 + 400*ramp(t/300s);", 1),
		"writeratio": strings.Replace(hashBase, "writeratio 15;",
			"writeratio 25;", 1),
		"thinktime": strings.Replace(hashBase, "writeratio 15;",
			"writeratio 15; thinktime 5s;", 1),
		"timeout": strings.Replace(hashBase, "writeratio 15;",
			"writeratio 15; timeout 20s;", 1),
		"trial": strings.Replace(hashBase, "workload",
			"trial { warmup 60s; run 300s; cooldown 30s; }\nworkload", 1),
		"slo": strings.Replace(hashBase, "workload",
			"slo { avg 500ms; }\nworkload", 1),
		"sloassert": strings.Replace(hashBase, "workload",
			"slo { assert p99(rt) < 1s; }\nworkload", 1),
		"monitor": strings.Replace(hashBase, "workload",
			"monitor { interval 5s; metrics cpu, disk; }\nworkload", 1),
		"allocate": strings.Replace(hashBase, "workload",
			"allocate { db high-end; }\nworkload", 1),
		"demands": strings.Replace(hashBase, "workload",
			"demands { db { disk 0.004s; } }\nworkload", 1),
		"scaling": strings.Replace(hashBase, "workload",
			"scaling { threshold 10000; engine auto; }\nworkload", 1),
		"policies": strings.Replace(hashBase, "workload",
			"policies { scale app by 1 when util(app, cpu) > 0.8 max 4; }\nworkload", 1),
		"faults": strings.Replace(hashBase, "workload",
			"faults { JONAS1 at 60s for 30s; }\nworkload", 1),
		"faultprofile": strings.Replace(hashBase, "workload",
			"faults { profile light; }\nworkload", 1),
		"repeat": strings.Replace(hashBase, "workload",
			"repeat 3;\nworkload", 1),
		"seed": strings.Replace(hashBase, "workload",
			"seed 42;\nworkload", 1),
		"name": strings.Replace(hashBase, `"hash-base"`, `"hash-base-2"`, 1),
	}
	hashes := map[string]string{}
	for name, src := range variants {
		doc, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := doc.Experiments[0].CanonicalHash()
		for other, oh := range hashes {
			if oh == h {
				t.Errorf("variants %q and %q collide on %s", name, other, h)
			}
		}
		hashes[name] = h
	}
}

// TestTrialHashIgnoresSweptAxes is the cache-key contract: sweeps that
// differ only in their grids (user range, write-ratio range, topology
// list) share a trial hash, because a trial at any shared coordinate is
// byte-identical between them. Clauses that reach the trial itself must
// still split the hash.
func TestTrialHashIgnoresSweptAxes(t *testing.T) {
	hash := func(src string) string {
		t.Helper()
		doc, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return doc.Experiments[0].TrialHash()
	}
	base := hash(hashBase)
	same := map[string]string{
		"wider users": strings.Replace(hashBase, "users 100 to 500 step 100;",
			"users 200 to 900 step 50;", 1),
		"fixed users": strings.Replace(hashBase, "users 100 to 500 step 100;",
			"users 300;", 1),
		"other writeratio": strings.Replace(hashBase, "writeratio 15;",
			"writeratio 5 to 25 step 10;", 1),
		"explicit topology": strings.Replace(hashBase, "workload",
			"topology { web 1; app 4; db 2; }\nworkload", 1),
		"topology sweep": strings.Replace(hashBase, "workload",
			"topologies 1-1-1, 1-2-1, 1-4-2;\nworkload", 1),
	}
	for name, src := range same {
		if h := hash(src); h != base {
			t.Errorf("%s: trial hash %s should match base %s", name, h, base)
		}
	}
	different := map[string]string{
		"name": strings.Replace(hashBase, `"hash-base"`, `"other"`, 1),
		"seed": strings.Replace(hashBase, "workload", "seed 7;\nworkload", 1),
		"thinktime": strings.Replace(hashBase, "writeratio 15;",
			"writeratio 15; thinktime 9s;", 1),
		"trial protocol": strings.Replace(hashBase, "workload",
			"trial { warmup 30s; run 120s; cooldown 15s; }\nworkload", 1),
		"demands": strings.Replace(hashBase, "workload",
			"demands { db { disk 0.004s; } }\nworkload", 1),
		"users expression": strings.Replace(hashBase, "users 100 to 500 step 100;",
			"users 100 + 400*ramp(t/300s);", 1),
		"repeat": strings.Replace(hashBase, "workload", "repeat 3;\nworkload", 1),
	}
	for name, src := range different {
		if h := hash(src); h == base {
			t.Errorf("%s: trial hash must differ from base", name)
		}
	}
}
