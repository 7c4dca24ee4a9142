package lib

import "testing"

func TestProbe(t *testing.T) {
	p := probe{last: 1}
	k := knob{verbose: true}
	if p.last != 1 || !k.verbose {
		t.Fatal("fixture")
	}
}
