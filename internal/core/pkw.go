package core

import "context"

// solvePKW is the "aggressive" ablation the paper discusses in §5.3:
// Pearce, Kelly and Hankin's original 2003 algorithm [22] detects cycles at
// every edge insertion, using a dynamically maintained topological order to
// skip insertions that cannot create a cycle. We reproduce that work
// profile: a topological position is kept per node; an inserted edge
// u → d with pos(u) > pos(d) (an ordering violation, hence a potential
// cycle) triggers an immediate depth-first search from d, collapsing any
// cycle found, after which the order is repaired locally by moving d's
// region after u. Consistent with the paper's observation, this searches
// far more nodes than LCD/HT/PKH and is roughly an order of magnitude
// slower on cycle-heavy inputs.
func solvePKW(ctx context.Context, g *graph, opts Options) error {
	n := uint32(g.n)
	// Topological position per node; initialized by discovery order and
	// maintained loosely (gaps allowed).
	pos := make([]int64, g.n)
	for i := range pos {
		pos[i] = int64(i)
	}
	var next int64 = int64(g.n)

	w := newWorklist(opts, g.n)
	for v := uint32(0); v < n; v++ {
		r := g.find(v)
		if g.sets[r] != nil && !g.sets[r].Empty() {
			w.Push(r)
		}
	}
	// insert is step 1's sink: it adds edge src → dst with eager cycle
	// detection and reports whether a collapse changed the union-find.
	insert := func(src, dst uint32) bool {
		if !g.addEdge(src, dst) {
			return false
		}
		united := false
		if pos[src] > pos[dst] {
			// Ordering violation: search for a cycle right now.
			g.stats.CycleChecks++
			next++
			if g.detectAndCollapse(dst, w.Push) {
				united = true
				pos[g.find(src)] = next
			} else {
				// No cycle: restore the invariant by moving dst
				// past src.
				pos[g.find(dst)] = next
			}
		}
		w.Push(g.find(src))
		return united
	}
	var pops int
	var k step1
	var pv []uint32
	for {
		x, ok := w.Pop()
		if !ok {
			break
		}
		if pops++; pops%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return canceled(err, "PKW worklist solving")
			}
			if pops%(ctxCheckInterval*16) == 0 {
				g.metrics.SampleMem()
			}
		}
		cur := g.find(x)
		if cur != x {
			w.Push(cur)
			continue
		}
		cur = g.applyHCD(cur, func(rep uint32) { w.Push(rep) })
		set := g.sets[cur]
		if set == nil || set.Empty() {
			continue
		}
		if len(g.loads[cur]) > 0 || len(g.stores[cur]) > 0 {
			// Iterate a snapshot: insert may collapse a cycle and
			// mutate the live set mid-iteration.
			pv = set.AppendTo(pv[:0])
			g.realize(&k, pv, g.loads[cur], g.stores[cur], g.find, insert)
			cur = g.find(cur)
			set = g.sets[cur]
			if set == nil {
				continue
			}
		}
		for _, z := range g.succsSnapshot(cur) {
			if z == cur {
				continue
			}
			g.stats.Propagations++
			if g.ptsOf(z).UnionWith(set) {
				w.Push(z)
			}
		}
	}
	return nil
}
