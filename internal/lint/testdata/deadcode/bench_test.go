package deadcorpus

import (
	"testing"

	"deadcorpus/internal/x"
)

// The paper harness is a root: what it reaches is live.
func BenchmarkHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x.FromHarness()
	}
}
