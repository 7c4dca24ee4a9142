package lib

import "fmt"

func Called() string { return fmt.Sprint(T{}) }

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
