package lib

import "fmt"

func Called() string { return fmt.Sprint(T{}, usedVar, usedType(0)) }

func UnusedExported() {}

func unusedUnexported() {}

func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

func Allowed() {}

type T struct{}

func (T) String() string { return "t" }

func (T) Area() float64 { return 0 }

type shape interface{ Area() float64 }

var _ shape = T{}

const (
	usedConst   = 1
	UnusedConst = 2
)

var usedVar = usedConst

// unusedVar has a doc comment
// two lines long.
var unusedVar int

type usedType int

type list struct{ next *list }
