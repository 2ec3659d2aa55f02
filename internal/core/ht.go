package core

import (
	"context"
	"time"

	"antgrass/internal/memo"
	"antgrass/internal/pts"
)

// solveHT implements the Heintze–Tardieu algorithm [11] (field-insensitive
// variant, as in the paper's evaluation). The constraint graph is kept in
// pre-transitive form: copy edges are recorded (here as predecessor
// adjacency) but points-to sets are not propagated along them eagerly.
// Instead, the points-to set of a node is computed on demand by a cached
// reachability query over copy predecessors — pts(x) = base(x) ∪ ⋃ pts(pred)
// — and cycles are detected and collapsed as a side effect of these queries
// (a gray node reached again during the depth-first query closes a cycle).
//
// The solver runs in rounds: each round resolves every complex constraint
// against fresh queries; new copy edges inserted this round may invalidate
// earlier query results, so rounds repeat until no edge (and no collapse)
// is added, after which one final round of queries materializes the full
// solution. This is the "unavoidable redundant work" §2 describes.
type htState struct {
	g     *graph
	cache []pts.Set // full points-to set per rep, stamped by round
	stamp []uint32  // round in which cache entry was computed
	round uint32

	// DFS bookkeeping, stamped by round so queries within one round
	// share visit state with completed cache entries.
	index   []uint32
	idxSeen []uint32 // round stamp for index validity
	nextIdx uint32

	frames []htFrame
	stack  []uint32 // Tarjan candidate stack (ids with valid index, on stack)
	onstk  []bool

	// computePts dedup stamps (replaces a per-call map allocation).
	qseen  []uint32
	qround uint32

	// memo, when non-nil (Options.Memo), deduplicates the predecessor-
	// union chains computePts walks: HT's rounds recompute the same
	// queries over largely unchanged caches — §2's "unavoidable redundant
	// work" — and nodes sharing predecessor structure replay identical
	// union sequences, which the memo answers as COW adoptions.
	memo *memo.Table
}

type htFrame struct {
	v     uint32
	preds []uint32
	next  int
}

func solveHT(ctx context.Context, g *graph, opts Options) error {
	h := &htState{
		g:       g,
		cache:   make([]pts.Set, g.n),
		stamp:   make([]uint32, g.n),
		index:   make([]uint32, g.n),
		idxSeen: make([]uint32, g.n),
		onstk:   make([]bool, g.n),
		qseen:   make([]uint32, g.n),
	}
	if opts.Memo {
		h.memo = memo.NewTable()
		defer func() {
			g.memoStats = h.memo.Stats()
			h.memo.Release()
		}()
	}
	g.onUnite = func(rep, lost uint32) {
		// Merge the query caches of collapsed nodes so partially
		// computed rounds stay sound; the merged entry is
		// conservative (an underapproximation is fine mid-round, the
		// fixpoint loop repeats until nothing changes).
		if h.cache[lost] != nil {
			if h.cache[rep] == nil {
				h.cache[rep] = h.cache[lost]
				h.stamp[rep] = h.stamp[lost]
			} else {
				h.cache[rep].UnionWith(h.cache[lost])
				// The lost handle is NOT released: applyHCDHT may
				// still be iterating it (unite fires from inside its
				// loop), so its storage is left to the GC.
			}
			h.cache[lost] = nil
		}
	}
	defer func() { g.onUnite = nil }()

	var k step1
	var pv []uint32
	for {
		if err := ctx.Err(); err != nil {
			return canceled(err, "HT round")
		}
		h.round++
		g.stats.Rounds++
		g.metrics.SampleMem()
		h.nextIdx = 0
		changed := false
		collapsedBefore := g.stats.NodesCollapsed
		for v := uint32(0); v < uint32(g.n); v++ {
			if g.find(v) != v {
				continue
			}
			n := v
			if g.hcdTargets != nil && len(g.hcdTargets[n]) > 0 {
				if h.applyHCDHT(n) {
					changed = true
				}
				n = g.find(n)
				if n != v {
					continue // absorbed; its rep handles the rest
				}
			}
			if len(g.loads[n]) == 0 && len(g.stores[n]) == 0 {
				continue
			}
			set := h.query(n)
			n = g.find(n) // query may collapse n into a cycle
			// New copy edges are stored reversed; step 1 unites nothing.
			pv = set.AppendTo(pv[:0])
			g.realize(&k, pv, g.loads[n], g.stores[n], g.find, func(src, dst uint32) bool {
				if g.addCopyEdge(src, dst) {
					changed = true
				}
				return false
			})
		}
		if g.stats.NodesCollapsed != collapsedBefore {
			changed = true
		}
		if !changed {
			break
		}
	}
	// Final round: materialize every variable's full points-to set.
	h.round++
	g.stats.Rounds++
	h.nextIdx = 0
	for v := uint32(0); v < uint32(g.n); v++ {
		r := g.find(v)
		h.query(r)
	}
	for v := 0; v < g.n; v++ {
		if g.find(uint32(v)) == uint32(v) && h.cache[v] != nil {
			if old := g.sets[v]; old != nil && old != h.cache[v] {
				pts.Release(old) // superseded by the materialized set
			}
			g.sets[v] = h.cache[v]
		}
	}
	return nil
}

// applyHCDHT runs the HCD online rule with HT's on-demand points-to query
// (the standalone applyHCD can't be used because pts(n) is not materialized
// in a pre-transitive graph). Reports whether any collapse happened.
func (h *htState) applyHCDHT(n uint32) bool {
	g := h.g
	targets := g.hcdTargets[n]
	if len(targets) == 0 {
		return false
	}
	if g.metrics != nil {
		t0 := time.Now()
		defer func() { g.hcdNS += time.Since(t0).Nanoseconds() }()
	}
	set := h.query(n)
	merged := false
	for _, b := range targets {
		rb := g.find(b)
		// Snapshot via the scratch buffer: unite below mutates the caches.
		g.hcdScratch = set.AppendTo(g.hcdScratch[:0])
		for _, u := range g.hcdScratch {
			ru := g.find(u)
			rb = g.find(rb)
			if ru == rb {
				continue
			}
			rb = g.unite(ru, rb)
			g.stats.HCDCollapses++
			merged = true
		}
	}
	return merged
}

// query returns the full points-to set of rep x this round, computing it
// with an iterative Tarjan-style DFS over copy predecessors. Cycles found
// along the way are collapsed.
func (h *htState) query(x uint32) pts.Set {
	g := h.g
	x = g.find(x)
	if h.stamp[x] == h.round {
		return h.cache[x]
	}
	h.visit(x)
	x = g.find(x)
	return h.cache[x]
}

func (h *htState) push(v uint32) {
	h.nextIdx++
	h.index[v] = h.nextIdx
	h.idxSeen[v] = h.round
	h.onstk[v] = true
	h.stack = append(h.stack, v)
	h.frames = append(h.frames, htFrame{v: v, preds: h.g.succsSnapshot(v)})
	h.g.stats.NodesSearched++
}

func (h *htState) visit(root uint32) {
	g := h.g
	low := make(map[uint32]uint32) // lowlink per frame node
	h.push(root)
	low[root] = h.index[root]
	for len(h.frames) > 0 {
		f := &h.frames[len(h.frames)-1]
		if f.next < len(f.preds) {
			w := g.find(f.preds[f.next])
			f.next++
			if w == f.v {
				continue
			}
			if h.stamp[w] == h.round {
				continue // already fully computed this round
			}
			if h.idxSeen[w] == h.round && h.index[w] != 0 {
				if h.onstk[w] && h.index[w] < low[f.v] {
					low[f.v] = h.index[w] // back edge: cycle
				}
				continue
			}
			h.push(w)
			low[w] = h.index[w]
			continue
		}
		v := f.v
		h.frames = h.frames[:len(h.frames)-1]
		if low[v] == h.index[v] {
			// v roots an SCC: pop members, collapse, compute pts.
			var members []uint32
			for {
				w := h.stack[len(h.stack)-1]
				h.stack = h.stack[:len(h.stack)-1]
				h.onstk[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			rep := members[0]
			for _, m := range members[1:] {
				rep = g.unite(rep, m)
			}
			h.computePts(rep)
		}
		if len(h.frames) > 0 {
			p := &h.frames[len(h.frames)-1]
			if low[v] < low[p.v] {
				low[p.v] = low[v]
			}
		}
	}
}

// computePts fills the cache entry for rep: base points-to facts plus the
// union of the cached sets of all external copy predecessors of the
// (possibly multi-node) component. unite has already merged the members'
// adjacency into rep.
func (h *htState) computePts(rep uint32) {
	g := h.g
	set := g.factory.New()
	if g.sets[rep] != nil {
		set.UnionWith(g.sets[rep]) // base facts (merged by unite)
	}
	h.qround++
	if h.qround == 0 { // stamp wraparound: invalidate all entries
		for i := range h.qseen {
			h.qseen[i] = 0
		}
		h.qround = 1
	}
	for _, p0 := range g.succsSnapshot(rep) {
		p := g.find(p0)
		if p == rep || h.qseen[p] == h.qround {
			continue
		}
		h.qseen[p] = h.qround
		if h.stamp[p] == h.round && h.cache[p] != nil {
			g.stats.Propagations++
			if h.memo != nil {
				if _, ok := h.memo.Union(set, h.cache[p]); ok {
					continue
				}
			}
			set.UnionWith(h.cache[p])
		}
	}
	if old := h.cache[rep]; old != nil {
		pts.Release(old) // stale previous-round entry: recycle its storage
	}
	h.cache[rep] = set
	h.stamp[rep] = h.round
}
