package stats

import srt "sort"

// SortedNames collects then sorts through a renamed import: the
// append order never escapes.
func SortedNames(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	srt.Strings(out)
	return out
}
