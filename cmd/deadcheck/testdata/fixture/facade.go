// Package fixture is the root package: its declarations count as used.
package fixture

import "fixture/lib"

// Facade has no caller.
func Facade() string { return lib.Called() }

// Version has no reader.
const Version = 1
