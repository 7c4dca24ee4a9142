package mulini

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"elba/internal/spec"
)

// TestRenderedArtifactDigests pins the exact bytes Mulini renders: for
// each deployment, the SHA-256 over every artifact's path and content in
// generation order. The Table 4/5 tests count lines only, so a change to
// a script's text shows up here alone. The cases cover RUBiS/JOnAS
// without and with the C-JDBC controller, and a RUBBoS/Tomcat topology
// placed by explicit allocate hints.
func TestRenderedArtifactDigests(t *testing.T) {
	for _, c := range []struct {
		name, src string
		artifacts int
		digest    string
	}{
		{"rubis-1-1-1", `experiment "rubis-digest" {
			benchmark rubis; platform emulab; appserver jonas;
			topology { web 1; app 1; db 1; }
			workload { users 100 to 300 step 100; writeratio 15; }
		}`, 35, "841ae1e2066b708181c91f426f2189fc84d12571b5d9547f2bc6a83ebb866fd8"},
		{"rubis-1-8-2", `experiment "rubis-digest" {
			benchmark rubis; platform emulab; appserver jonas;
			topology { web 1; app 8; db 2; }
			workload { users 500 to 1500 step 500; writeratio 15; }
		}`, 100, "c8e096e61587a1a1dc8dba22844cfeba671730ab592480bd6d58bf553cb04ce6"},
		{"rubbos-allocate", `experiment "rubbos-digest" {
			benchmark rubbos; platform emulab; appserver tomcat; mix submission;
			topology { web 1; app 2; db 2; }
			allocate { web low-end; app high-end; db high-end; }
			workload { users 200 to 600 step 200; writeratio 10; }
		}`, 52, "aee84a842731f7cd4231656203d46951ef0202ec537065155a3fd3d164c77a8b"},
	} {
		doc, err := spec.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ds, err := testGenerator(t).Generate(doc.Experiments[0])
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		b := ds[0].Bundle
		for _, p := range b.Paths() {
			a, _ := b.Get(p)
			h.Write([]byte(p))
			h.Write([]byte{0})
			h.Write([]byte(a.Content))
			h.Write([]byte{0})
		}
		if got := hex.EncodeToString(h.Sum(nil)); b.Len() != c.artifacts || got != c.digest {
			t.Errorf("%s: %d artifacts, digest %s; want %d, %s", c.name, b.Len(), got, c.artifacts, c.digest)
		}
	}
}
