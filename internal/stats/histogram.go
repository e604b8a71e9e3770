package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
}

// NewHistogram creates a histogram with bins equal-width bins spanning
// [lo, hi). It panics if bins <= 0 or hi <= lo, which indicates a
// programming error rather than a data condition.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g) with %d bins", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard float round-up at the edge
			i--
		}
		h.Counts[i]++
	}
}

// BinCenter returns the center x of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Render draws an ASCII bar chart of the histogram, width characters
// wide, suitable for terminal reports of the Fig. 3 distributions.
func (h *Histogram) Render(width int) string {
	if width < 10 {
		width = 10
	}
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if maxC > 0 {
			bar = int(math.Round(float64(c) / float64(maxC) * float64(width)))
		}
		fmt.Fprintf(&b, "%+9.4f | %s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}
