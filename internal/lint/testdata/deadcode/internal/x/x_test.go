package x

import "testing"

func TestOnlyCaller(t *testing.T) {
	if TestOnly() != 3 || Kept() != 4 {
		t.Fatal("corpus")
	}
}
