// Package fixture is the root package: its declarations count as used.
package fixture

import "fixture/lib"

// Facade has no caller.
func Facade() string { return lib.Called() }

// Version has no reader.
const Version = 1

// Options.Debug has no reader either.
type Options struct{ Debug bool }

// Encode marshals the library's report.
func Encode() ([]byte, error) { return lib.Fields() }
