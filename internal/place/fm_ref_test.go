package place

import (
	"slices"
	"testing"
	"testing/quick"

	"vipipe/internal/netlist"
	"vipipe/internal/vex"
)

// partitionRef is the original map-based partition, kept verbatim as
// the reference the production one must match move for move: it
// recomputes every unlocked neighbour's full gain after each move.
func (g *placer) partitionRef(cells []int) (left, right []int) {
	p := g.p
	n := len(cells)

	// Local indexing.
	pos := make(map[int]int, n)
	for i, c := range cells {
		pos[c] = i
	}
	w := make([]float64, n)
	total := 0.0
	for i, c := range cells {
		w[i] = p.W[c]
		total += w[i]
	}

	// Random area-balanced initial split.
	order := g.rng.Perm(n)
	side := make([]uint8, n)
	var areas [2]float64
	for _, i := range order {
		s := uint8(0)
		if areas[0] > areas[1] {
			s = 1
		}
		side[i] = s
		areas[s] += w[i]
	}

	// Collect internal nets as member lists of local indices.
	type netInfo struct {
		members []int32
		count   [2]int32
	}
	var nets []netInfo
	cellNets := make([][]int32, n)
	seen := make(map[int]bool)
	for _, c := range cells {
		inst := &p.NL.Insts[c]
		for _, netID := range append([]int{inst.Out}, inst.Inputs...) {
			if seen[netID] {
				continue
			}
			seen[netID] = true
			net := &p.NL.Nets[netID]
			if len(net.Sinks)+1 > g.opts.MaxFanout {
				continue
			}
			var members []int32
			internal := true
			walk := func(id int) {
				if li, ok := pos[id]; ok {
					members = append(members, int32(li))
				} else {
					internal = false
				}
			}
			if net.Driver != netlist.NoInst {
				walk(net.Driver)
			}
			for _, s := range net.Sinks {
				walk(s.Inst)
			}
			if !internal || len(members) < 2 {
				continue
			}
			ni := int32(len(nets))
			nets = append(nets, netInfo{members: members})
			for _, m := range members {
				cellNets[m] = append(cellNets[m], ni)
			}
		}
	}

	// Gain of moving local cell i to the other side, given current
	// net side-counts.
	gainOf := func(i int) int {
		gn := 0
		s := side[i]
		for _, ni := range cellNets[i] {
			cnt := &nets[ni].count
			if cnt[s] == 1 {
				gn++
			}
			if cnt[1-s] == 0 {
				gn--
			}
		}
		return gn
	}

	lo, hi := 0.45*total, 0.55*total
	for pass := 0; pass < g.opts.FMPasses; pass++ {
		for i := range nets {
			nets[i].count = [2]int32{}
			for _, m := range nets[i].members {
				nets[i].count[side[m]]++
			}
		}
		// Gain buckets with lazy deletion: maxDeg bounds |gain|.
		maxDeg := 1
		for i := range cellNets {
			if d := len(cellNets[i]); d > maxDeg {
				maxDeg = d
			}
		}
		gains := make([]int, n)
		locked := make([]bool, n)
		buckets := make([][]int32, 2*maxDeg+1)
		maxG := -maxDeg
		push := func(i int) {
			gn := gains[i]
			buckets[gn+maxDeg] = append(buckets[gn+maxDeg], int32(i))
			if gn > maxG {
				maxG = gn
			}
		}
		for i := 0; i < n; i++ {
			gains[i] = gainOf(i)
			push(i)
		}

		a := areas
		type move struct {
			cell, gn int
		}
		var seq []move
		cum, best, bestAt := 0, 0, -1
		var deferred []int32
		for moved := 0; moved < n; moved++ {
			// Pop the highest-gain movable cell.
			cellIdx := -1
			for gi := maxG; gi >= -maxDeg; gi-- {
				b := buckets[gi+maxDeg]
				for len(b) > 0 {
					i := int(b[len(b)-1])
					b = b[:len(b)-1]
					if locked[i] || gains[i] != gi {
						continue // stale entry
					}
					s := side[i]
					if a[1-s]+w[i] > hi || a[s]-w[i] < lo-0.05*total {
						deferred = append(deferred, int32(i))
						continue
					}
					cellIdx = i
					break
				}
				buckets[gi+maxDeg] = b
				if cellIdx >= 0 {
					break
				}
				maxG = gi - 1
			}
			// Re-queue balance-deferred cells.
			for _, d := range deferred {
				i := int(d)
				if !locked[i] {
					if gains[i] > maxG {
						maxG = gains[i]
					}
					buckets[gains[i]+maxDeg] = append(buckets[gains[i]+maxDeg], d)
				}
			}
			deferred = deferred[:0]
			if cellIdx < 0 {
				break
			}

			i := cellIdx
			gn := gains[i]
			s := side[i]
			a[s] -= w[i]
			a[1-s] += w[i]
			side[i] = 1 - s
			locked[i] = true
			for _, ni := range cellNets[i] {
				nets[ni].count[s]--
				nets[ni].count[1-s]++
			}
			// Recompute gains of unlocked cells on affected nets.
			for _, ni := range cellNets[i] {
				for _, m := range nets[ni].members {
					mi := int(m)
					if locked[mi] {
						continue
					}
					if ng := gainOf(mi); ng != gains[mi] {
						gains[mi] = ng
						push(mi)
					}
				}
			}
			cum += gn
			seq = append(seq, move{i, gn})
			if cum > best {
				best, bestAt = cum, len(seq)-1
			}
			// Abort only a long unprofitable tail: FM's strength is
			// walking down into a cut valley and out the other side,
			// which can take O(cluster size) negative-gain moves.
			if len(seq)-bestAt > n/2+64 {
				break
			}
		}
		// Roll back moves after the best prefix.
		for i := len(seq) - 1; i > bestAt; i-- {
			c := seq[i].cell
			s := side[c]
			side[c] = 1 - s
			a[s] -= w[c]
			a[1-s] += w[c]
		}
		areas = a
		if best <= 0 {
			break
		}
	}

	for i, c := range cells {
		if side[i] == 0 {
			left = append(left, c)
		} else {
			right = append(right, c)
		}
	}
	// Degenerate guard: never return an empty side.
	if len(left) == 0 || len(right) == 0 {
		mid := n / 2
		return cells[:mid], cells[mid:]
	}
	return left, right
}

// checkSame runs partition on a and partitionRef on b, two placers
// built alike, and fails unless the halves match element for element
// and both streams stand at the same position afterwards.
func checkSame(tb testing.TB, a, b *placer, cells []int) (left, right []int) {
	tb.Helper()
	left, right = a.partition(cells)
	wantL, wantR := b.partitionRef(cells)
	if !slices.Equal(left, wantL) || !slices.Equal(right, wantR) {
		tb.Fatalf("%d cells: halves %d/%d, reference %d/%d, or members differ",
			len(cells), len(left), len(right), len(wantL), len(wantR))
	}
	if x, y := a.rng.Int63(), b.rng.Int63(); x != y {
		tb.Fatalf("%d cells: stream positions differ after partition (%d vs %d)", len(cells), x, y)
	}
	return left, right
}

// TestPartitionMatchesReference pins the incremental partition to the
// recompute-every-neighbour reference: same halves, same order, same
// number of draws, on random chain netlists under random fan-out caps
// and pass counts, and on the small VEX core at two levels of the
// recursion (which reuses the placer's scratch across calls).
func TestPartitionMatchesReference(t *testing.T) {
	f := func(seed int64, k, m, fanout, passes uint8) bool {
		nl := chainNetlist(2+int(k%6), 5+int(m%40))
		opts := DefaultOptions()
		opts.Seed = seed
		opts.MaxFanout = 2 + int(fanout%63)
		opts.FMPasses = int(passes % 13)
		p := mustNew(nl)
		a := &placer{p: p, opts: opts, rng: newStream(seed)}
		b := &placer{p: p, opts: opts, rng: newStream(seed)}
		checkSame(t, a, b, allCells(nl))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	nl := vexNetlist(t, vex.SmallConfig())
	p := mustNew(nl)
	for seed := int64(1); seed <= 3; seed++ {
		a := &placer{p: p, opts: DefaultOptions(), rng: newStream(seed)}
		b := &placer{p: p, opts: DefaultOptions(), rng: newStream(seed)}
		left, right := checkSame(t, a, b, allCells(nl))
		checkSame(t, a, b, left)
		checkSame(t, a, b, right)
	}
}
