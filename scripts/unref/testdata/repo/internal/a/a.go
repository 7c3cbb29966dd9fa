// Package a declares one name per case of unref's test.
package a

type Called struct{}   // its Twin is called
type Uncalled struct{} // its Twin is not
type Shape interface{ Area() float64 }
type Square struct{} // its Area is reached only through Shape
type Label string    // its String is reached only through fmt

func (Called) Twin() int       { return 1 }
func (Uncalled) Twin() int     { return 2 }
func (Square) Area() float64   { return 1 }
func (l Label) String() string { return string(l) }
func TestOnly() int            { return 3 } // called by this package's tests only
func Remote() int              { return 4 } // called by the bench module only
func CmdTestOnly() int         { return 6 } // called by cmd/app's tests only

//vista:keep exempt though nothing calls it
func (Called) Reference() int { return 5 }

//vista:keep exempt though only cmd/app's tests call it
func Harness() int { return 7 }
