// Command app is the fixture's program.
package main

import (
	"fmt"

	"repro/internal/a"
)

func main() {
	var s a.Shape = a.Square{}
	fmt.Println(a.Called{}.Twin(), a.Uncalled{}, s.Area(), a.Label("x"))
}
