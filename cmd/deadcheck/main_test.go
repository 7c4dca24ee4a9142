package main

import (
	"slices"
	"testing"
)

// TestScanFixture runs the scan over testdata/fixture. It must flag the
// unused exported and unexported functions and the one only its own body
// calls, an unused constant, variable and type (the type named only in
// its own definition), and the allowlist entry that matches nothing. It
// must pass the root facade (a constant too), main and init, a called
// function, methods that satisfy fmt.Stringer and a local interface, an
// allowlisted function, used constants, variables and types, and a blank
// variable.
func TestScanFixture(t *testing.T) {
	hits, err := scan("testdata/fixture", map[string]string{
		"fixture/lib.Allowed": "kept on purpose",
		"fixture/lib.Gone":    "no longer exists",
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range hits {
		got = append(got, h.String())
	}
	want := []string{
		"lib/lib.go:7: fixture/lib.UnusedExported is unused (1 lines)",
		"lib/lib.go:9: fixture/lib.unusedUnexported is unused (1 lines)",
		"lib/lib.go:11: fixture/lib.recursive is unused (6 lines)",
		"lib/lib.go:32: fixture/lib.UnusedConst is unused (1 lines)",
		"lib/lib.go:39: fixture/lib.unusedVar is unused (3 lines)",
		"lib/lib.go:43: fixture/lib.list is unused (1 lines)",
		"allowlist entry fixture/lib.Gone matches no unused declaration",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("scan reported\n%q\nwant\n%q", got, want)
	}
}
