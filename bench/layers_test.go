package main

import (
	"context"
	"testing"
)

// TestKernelZeroAlloc pins the sta.Kernel contract the Monte Carlo
// loops rely on: Run, Rerun and RunFrame allocate nothing per call once
// a Frame has grown to its high-water mark.
func TestKernelZeroAlloc(t *testing.T) {
	f, err := newFixture(context.Background(), probeCore{small: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.dirty) == 0 {
		t.Fatal("fixture overlay disc covers no cells: Rerun would be a no-op")
	}
	if n := kernelAllocs(f); n != 0 {
		t.Fatalf("kernel Run+Rerun+RunFrame allocates %v times per round, want 0", n)
	}
}
