// Command bench reaches package a through the replace in its go.mod.
package main

import "repro/internal/a"

func main() { println(a.Remote()) }
