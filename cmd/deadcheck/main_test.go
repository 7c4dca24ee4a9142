package main

import (
	"slices"
	"testing"
)

// TestScanFixture runs the scan over testdata/fixture. It must flag the
// unused exported and unexported functions and the one only its own body
// calls, an unused constant, variable and type (the type named only in
// its own definition), the allowlist entries that match nothing, and
// these fields: ones only stored into (incremented, assigned from
// themselves, written or deleted by element), one read only by a _test.go
// file, one that only a _test.go file sets, and an unexported field of a
// marshaled struct. It must pass the root facade (a constant and a field
// too), main and init, a called function, methods that satisfy
// fmt.Stringer and a local interface, an allowlisted function and field,
// used constants, variables and types, a blank variable, the fields of a
// map key and of an == operand, the exported fields json.Marshal reaches,
// a tagged field, and the fields of the unused type. An allowlisted
// type's key covers the type alone: its unused method and field are
// flagged, its Stringer method passes, and its methods' receivers do not
// make the key stale.
func TestScanFixture(t *testing.T) {
	hits, err := scan("testdata/fixture", map[string]string{
		"fixture/lib.Allowed":    "kept on purpose",
		"fixture/lib.Listed":     "kept on purpose",
		"fixture/lib.Gone":       "no longer exists",
		"fixture/lib.kept.spare": "kept on purpose",
		"fixture/lib.kept.gone":  "no longer exists",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range hits {
		got = append(got, h.String())
	}
	want := []string{
		"lib/fields.go:8: fixture/lib.counter.hits is never read (1 lines)",
		"lib/fields.go:8: fixture/lib.counter.total is never read (1 lines)",
		"lib/fields.go:9: fixture/lib.counter.seen is never read (1 lines)",
		"lib/fields.go:12: fixture/lib.probe.last is never read (1 lines)",
		"lib/fields.go:13: fixture/lib.knob.verbose is never set (1 lines)",
		"lib/fields.go:26: fixture/lib.Report.note is never read (1 lines)",
		"lib/lib.go:7: fixture/lib.UnusedExported is unused (1 lines)",
		"lib/lib.go:9: fixture/lib.unusedUnexported is unused (1 lines)",
		"lib/lib.go:11: fixture/lib.recursive is unused (6 lines)",
		"lib/lib.go:32: fixture/lib.UnusedConst is unused (1 lines)",
		"lib/lib.go:39: fixture/lib.unusedVar is unused (3 lines)",
		"lib/lib.go:43: fixture/lib.list is unused (1 lines)",
		"lib/listed.go:6: fixture/lib.Listed.spare is unused (1 lines)",
		"lib/listed.go:10: fixture/lib.Listed.Unused is unused (1 lines)",
		"allowlist entry fixture/lib.Gone matches no unused declaration or field",
		"allowlist entry fixture/lib.kept.gone matches no unused declaration or field",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("scan reported\n%q\nwant\n%q", got, want)
	}
}
