package mc

import . "time"

// Wall reads the clock through a dot import: no package name to match.
func Wall() int64 {
	return Now().Unix()
}
