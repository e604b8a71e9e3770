// Package mc is a lint fixture: a package that type-checks next to one
// that does not.
package mc

import "time"

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().Unix()
}
