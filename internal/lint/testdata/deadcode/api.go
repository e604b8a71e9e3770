// Package deadcorpus is the root package: its exported API is a root.
package deadcorpus

import "deadcorpus/internal/x"

// Entry is library surface.
func Entry() int { return x.FromAPI() }
