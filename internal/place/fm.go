package place

import (
	"slices"

	"vipipe/internal/netlist"
)

// fmScratch is partition's working memory. The placer owns one and
// sizes each array once, so the thousands of bisections of a placement
// reuse the same storage across calls and passes.
type fmScratch struct {
	local []int32  // cell -> index in the current region, -1 outside it
	stamp []uint32 // net -> epoch of the last call that visited it
	epoch uint32

	w    []float64
	side []uint8

	// Internal nets and each cell's nets as CSR arrays, both in
	// discovery order: net k's members (driver, then sinks) are
	// mem[memOff[k]:memOff[k+1]], and local cell i's nets are
	// cellNets[cellOff[i]:cellOff[i+1]], ascending.
	memOff, mem       []int32
	cellOff, cellNets []int32
	count             [][2]int32 // per net: members on side 0 and side 1

	gains    []int32
	dgain    []int32 // per cell: gain change pending within one move
	locked   []bool
	buckets  [][]int32
	seq      []int32 // moved cells, in move order
	deferred []int32
}

// grow returns s with length n, reusing its backing array when it is
// large enough. Elements below the old capacity keep their values;
// callers initialize what they read.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// fmTerm is one net's share of a member's move gain, for a member on
// side t: +1 when the member is the net's only pin on t (the move
// uncuts the net), -1 when no pin is on the other side (the move cuts
// it).
func fmTerm(cnt [2]int32, t uint8) int32 {
	var d int32
	if cnt[t] == 1 {
		d++
	}
	if cnt[1-t] == 0 {
		d--
	}
	return d
}

// partition splits cells into two area-balanced halves minimizing the
// number of cut nets with Fiduccia-Mattheyses passes over a random
// balanced initial split. Only nets with every pin inside the region
// and at most MaxFanout pins participate in the cut cost: huge-fanout
// nets (constants, resets) carry no placement signal, and pins outside
// the region are already fixed elsewhere.
//
// Gains are seeded once per pass and then updated incrementally, as
// in Fiduccia and Mattheyses: a move changes only the terms of the
// moved cell's nets.
func (g *placer) partition(cells []int) (left, right []int) {
	p, s := g.p, &g.fm
	n := len(cells)

	// Local indexing: s.local is -1 outside the region between calls.
	if len(s.local) < len(p.NL.Insts) {
		s.local = make([]int32, len(p.NL.Insts))
		for c := range s.local {
			s.local[c] = -1
		}
	}
	local := s.local
	for i, c := range cells {
		local[c] = int32(i)
	}
	s.w, s.side = grow(s.w, n), grow(s.side, n)
	w, side := s.w, s.side
	total := 0.0
	for i, c := range cells {
		w[i] = p.W[c]
		total += w[i]
	}

	// Random area-balanced initial split.
	order := g.rng.Perm(n)
	var areas [2]float64
	for _, i := range order {
		t := uint8(0)
		if areas[0] > areas[1] {
			t = 1
		}
		side[i] = t
		areas[t] += w[i]
	}

	// Collect internal nets, each visited once per call: a net is
	// visited iff its stamp is the call's epoch.
	if len(s.stamp) < len(p.NL.Nets) {
		s.stamp = make([]uint32, len(p.NL.Nets))
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	memOff, mem := append(s.memOff[:0], 0), s.mem[:0]
	visit := func(netID int) {
		if s.stamp[netID] == s.epoch {
			return
		}
		s.stamp[netID] = s.epoch
		net := &p.NL.Nets[netID]
		if len(net.Sinks)+1 > g.opts.MaxFanout {
			return
		}
		start := len(mem)
		if net.Driver != netlist.NoInst {
			mem = append(mem, local[net.Driver])
		}
		for _, sk := range net.Sinks {
			mem = append(mem, local[sk.Inst])
		}
		if len(mem)-start < 2 || slices.Min(mem[start:]) < 0 {
			mem = mem[:start] // a pin outside the region, or a lone pin
			return
		}
		memOff = append(memOff, int32(len(mem)))
	}
	for _, c := range cells {
		inst := &p.NL.Insts[c]
		visit(inst.Out)
		for _, in := range inst.Inputs {
			visit(in)
		}
	}
	s.memOff, s.mem = memOff, mem
	nNets := len(memOff) - 1
	members := func(k int32) []int32 { return mem[memOff[k]:memOff[k+1]] }

	// Invert to each cell's nets. Counting degrees one slot ahead
	// (cellOff[m+2]) and filling through cellOff[m+1] leaves
	// cellOff[i] at the start of cell i's nets.
	cellOff := grow(s.cellOff, n+2)
	clear(cellOff)
	for _, m := range mem {
		cellOff[m+2]++
	}
	for i := 2; i < len(cellOff); i++ {
		cellOff[i] += cellOff[i-1]
	}
	cellNets := grow(s.cellNets, len(mem))
	for k := int32(0); int(k) < nNets; k++ {
		for _, m := range members(k) {
			cellNets[cellOff[m+1]] = k
			cellOff[m+1]++
		}
	}
	cellOff = cellOff[:n+1]
	s.cellOff, s.cellNets = cellOff, cellNets
	netsOf := func(i int32) []int32 { return cellNets[cellOff[i]:cellOff[i+1]] }

	s.count = grow(s.count, nNets)
	count := s.count
	// Gain of moving local cell i to the other side, given current
	// net side-counts.
	gainOf := func(i int32) int32 {
		var gn int32
		for _, k := range netsOf(i) {
			gn += fmTerm(count[k], side[i])
		}
		return gn
	}

	// Gain buckets with lazy deletion: maxDeg bounds |gain|.
	maxDeg := int32(1)
	for i := 0; i < n; i++ {
		maxDeg = max(maxDeg, cellOff[i+1]-cellOff[i])
	}
	s.buckets = grow(s.buckets, int(2*maxDeg+1))
	s.gains, s.dgain, s.locked = grow(s.gains, n), grow(s.dgain, n), grow(s.locked, n)
	buckets, gains, dgain, locked := s.buckets, s.gains, s.dgain, s.locked
	clear(dgain)
	seq, deferred := s.seq[:0], s.deferred[:0]

	lo, hi := 0.45*total, 0.55*total
	for pass := 0; pass < g.opts.FMPasses; pass++ {
		clear(count)
		for k := int32(0); int(k) < nNets; k++ {
			for _, m := range members(k) {
				count[k][side[m]]++
			}
		}
		for b := range buckets {
			buckets[b] = buckets[b][:0]
		}
		clear(locked)
		maxG := -maxDeg
		push := func(i int32) {
			gn := gains[i]
			buckets[gn+maxDeg] = append(buckets[gn+maxDeg], i)
			if gn > maxG {
				maxG = gn
			}
		}
		for i := int32(0); int(i) < n; i++ {
			gains[i] = gainOf(i)
			push(i)
		}

		a := areas
		seq = seq[:0]
		cum, best, bestAt := 0, 0, -1
		for moved := 0; moved < n; moved++ {
			// Pop the highest-gain movable cell.
			cellIdx := int32(-1)
			for gi := maxG; gi >= -maxDeg; gi-- {
				b := buckets[gi+maxDeg]
				for len(b) > 0 {
					i := b[len(b)-1]
					b = b[:len(b)-1]
					if locked[i] || gains[i] != gi {
						continue // stale entry
					}
					t := side[i]
					if a[1-t]+w[i] > hi || a[t]-w[i] < lo-0.05*total {
						deferred = append(deferred, i)
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
			for _, i := range deferred {
				if !locked[i] {
					if gains[i] > maxG {
						maxG = gains[i]
					}
					buckets[gains[i]+maxDeg] = append(buckets[gains[i]+maxDeg], i)
				}
			}
			deferred = deferred[:0]
			if cellIdx < 0 {
				break
			}

			i := cellIdx
			gn := gains[i]
			t := side[i]
			a[t] -= w[i]
			a[1-t] += w[i]
			side[i] = 1 - t
			locked[i] = true
			// A move changes an unlocked member's gain only through
			// the moved cell's nets, each by the change in its term.
			changed := false
			for _, k := range netsOf(i) {
				was := count[k]
				count[k][t]--
				count[k][1-t]++
				d := [2]int32{fmTerm(count[k], 0) - fmTerm(was, 0), fmTerm(count[k], 1) - fmTerm(was, 1)}
				if d == [2]int32{} {
					continue
				}
				changed = true
				for _, m := range members(k) {
					if !locked[m] {
						dgain[m] += d[side[m]]
					}
				}
			}
			// Re-queue the cells whose gain changed in the order a
			// walk of all the moved cell's nets first meets them, so
			// the buckets' LIFO ties break as after a full recompute.
			// A cell's first net may be one whose term did not change.
			if changed {
				for _, k := range netsOf(i) {
					for _, m := range members(k) {
						if dg := dgain[m]; dg != 0 {
							dgain[m] = 0
							gains[m] += dg
							push(m)
						}
					}
				}
			}
			cum += int(gn)
			seq = append(seq, i)
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
		for j := len(seq) - 1; j > bestAt; j-- {
			c := seq[j]
			t := side[c]
			side[c] = 1 - t
			a[t] -= w[c]
			a[1-t] += w[c]
		}
		areas = a
		if best <= 0 {
			break
		}
	}
	s.seq, s.deferred = seq, deferred
	for _, c := range cells {
		local[c] = -1
	}

	nLeft := 0
	for i := 0; i < n; i++ {
		if side[i] == 0 {
			nLeft++
		}
	}
	// Degenerate guard: never return an empty side.
	if nLeft == 0 || nLeft == n {
		mid := n / 2
		return cells[:mid], cells[mid:]
	}
	out := make([]int, n)
	left, right = out[:0:nLeft], out[nLeft:nLeft]
	for i, c := range cells {
		if side[i] == 0 {
			left = append(left, c)
		} else {
			right = append(right, c)
		}
	}
	return left, right
}
