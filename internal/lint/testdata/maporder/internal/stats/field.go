package stats

import (
	. "fmt"
	"io"
)

// Index keeps its entries in a struct field.
type Index struct{ m map[string]int }

// Names collects the field map's keys in iteration order: unstable.
func (x *Index) Names() []string {
	var out []string
	for k := range x.m {
		out = append(out, k)
	}
	return out
}

// Dump prints map entries in iteration order through a dot-imported
// fmt: unstable.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		Fprintf(w, "%s=%d\n", k, v)
	}
}
