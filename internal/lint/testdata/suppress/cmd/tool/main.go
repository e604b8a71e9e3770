// Command tool reaches every fixture function, so the deadcode rule
// has nothing to report and the corpus isolates directive handling.
package main

import "lintroot/internal/mc"

func main() {
	mc.Stamp()
	mc.Bogus()
	mc.Clean()
}
