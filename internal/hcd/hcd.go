// Package hcd implements the offline half of Hybrid Cycle Detection
// (§4.2 of the paper), a static analysis run before the pointer analysis
// proper. Building the offline graph and finding its SCCs is linear;
// licensing the pairs of a mixed SCC with V var members, E edges among
// them and R ref members costs O((V+E)·⌈R/64⌉) (see pairsForSCC).
//
// The offline constraint graph has one node per program variable plus one
// "ref" node per variable (standing for the variable's unknown points-to
// set). Edges are derived from the simple and complex constraints:
//
//	a ⊇ b    yields  b      → a
//	a ⊇ *b   yields  ref(b) → a
//	*a ⊇ b   yields  b      → ref(a)
//
// Base (address-of) constraints are ignored. SCCs are then found with
// Tarjan's algorithm:
//
//   - an SCC with only non-ref nodes is a genuine structural cycle and may
//     be collapsed before solving starts (PreUnions);
//   - an SCC containing a ref node ref(a) may justify a tuple (a, b): the
//     online analysis then unions every member of pts(a) with the non-ref
//     node b as soon as it is discovered (Pairs).
//
// # The offline-pair precondition
//
// Recording (a, b) asserts unconditionally that every v ∈ pts(a) ends up in
// a cycle with b in the online constraint graph. That is only guaranteed
// when ref(a) and b lie on an offline cycle whose every OTHER node is a
// non-ref node: var→var edges exist online from the start, the SCC's store
// edges into ref(a) become online edges x → v for each v ∈ pts(a), and its
// load edges out of ref(a) become online edges v → y, so the cycle
// b →* x → v → y →* b materializes the moment v enters pts(a).
//
// If the only cycles connecting ref(a) and b thread through a second ref
// node ref(c), the online cycle exists only if pts(c) turns out non-empty —
// an assumption the offline analysis cannot make. Acting on such a pair
// over-collapses: it can merge a variable the least fixpoint keeps separate
// and leak points-to members into it (see docs/ALGORITHMS.md §HCD for the
// worked example, minimized from random-program seed -4666488491679278325).
// Analyze therefore emits (a, b) only when b is on a cycle with ref(a) in
// the subgraph induced by the SCC's non-ref members plus ref(a) alone; ref
// nodes whose every cycle is mediated by another ref node contribute no
// pair. Dropping a pair is always safe — HCD is incomplete by design, and
// the online cycle, if it ever materializes, is found by the solver's own
// cycle detection (LCD, PKH, PKW) or plain propagation.
//
// Constraints with a non-zero offset (indirect-call encodings) contribute no
// offline edges: their targets depend on per-pointee arithmetic the offline
// graph cannot express. This only makes HCD detect fewer cycles, which is
// safe for the same reason.
package hcd

import (
	"math/bits"
	"slices"
	"sort"
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/scc"
)

// Pair is one offline tuple (a, b): when the online analysis discovers a
// member v of pts(Deref), it may union v with Target (Figure 5 of the
// paper).
type Pair struct {
	// Deref is the variable a whose ref node anchors the cycle.
	Deref uint32
	// Target is the chosen non-ref cycle member b.
	Target uint32
}

// Result is the output of the offline analysis, consumed by the solvers.
type Result struct {
	// Pairs lists the offline tuples in ascending Deref order (each
	// Deref appears at most once — a ref node lives in exactly one SCC).
	// The deterministic order makes every consumer's collapse sequence,
	// and therefore any failure, reproducible bit-identically.
	Pairs []Pair
	// PreUnions lists pairs of variables that are in a purely structural
	// cycle and can be collapsed before solving begins.
	PreUnions [][2]uint32
	// Duration is the offline analysis time (reported separately in
	// Table 3, "HCD-Offline").
	Duration time.Duration
	// SCCs is the number of non-trivial SCCs found in the offline graph.
	SCCs int
}

// Analyze runs the offline analysis on p.
func Analyze(p *constraint.Program) *Result {
	start := time.Now()
	n := uint32(p.NumVars)
	// Offline graph nodes: v in [0,n) is variable v; n+v is ref(v).
	adj := make([][]uint32, 2*n)
	addEdge := func(from, to uint32) {
		adj[from] = append(adj[from], to)
	}
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.Copy:
			addEdge(c.Src, c.Dst)
		case constraint.Load:
			if c.Offset == 0 {
				addEdge(n+c.Src, c.Dst)
			}
		case constraint.Store:
			if c.Offset == 0 {
				addEdge(c.Src, n+c.Dst)
			}
		}
	}
	res := &Result{}
	var local []uint32 // pairsForSCC's scratch, allocated on first use
	// A node without out-edges is a trivial component unless an edge
	// reaches it, so the nodes with out-edges are the only roots needed.
	// The non-nil slice keeps Tarjan from rooting at every node.
	roots := make([]uint32, 0)
	for x, out := range adj {
		if len(out) > 0 {
			roots = append(roots, uint32(x))
		}
	}
	sccRes := scc.Tarjan(int(2*n), roots, func(x uint32) []uint32 { return adj[x] })
	for _, comp := range sccRes.Comps {
		if len(comp) < 2 {
			continue
		}
		res.SCCs++
		// Partition into variable and ref members.
		var vars, refs []uint32
		for _, m := range comp {
			if m < n {
				vars = append(vars, m)
			} else {
				refs = append(refs, m-n)
			}
		}
		if len(refs) == 0 {
			// Structural cycle: collapse offline.
			for i := 1; i < len(vars); i++ {
				res.PreUnions = append(res.PreUnions, [2]uint32{vars[0], vars[i]})
			}
			continue
		}
		if len(vars) == 0 {
			// Cannot happen: there are no constraints of the form
			// *p ⊇ *q, so ref nodes never connect directly. Guard
			// anyway.
			continue
		}
		if local == nil {
			local = make([]uint32, 2*n)
		}
		res.pairsForSCC(n, adj, local, vars, refs)
		// The non-ref members of a mixed SCC are NOT collapsed
		// offline: their mutual cycle only materializes online if the
		// ref's points-to set turns out non-empty, and collapsing
		// early could lose precision (§4.2).
	}
	sort.Slice(res.Pairs, func(i, j int) bool { return res.Pairs[i].Deref < res.Pairs[j].Deref })
	res.Duration = time.Since(start)
	return res
}

// pairsForSCC emits the licensed tuples of one mixed SCC: for each ref
// member ref(a), the pair (a, b) where b is the smallest var member on a
// cycle with ref(a) in the subgraph restricted to the SCC's var members
// plus ref(a) itself (no other ref nodes). Refs with no such cycle emit
// nothing — their cycles are conditional on another ref's points-to set.
//
// b qualifies iff it is reachable from a load target of ref(a) and reaches
// a store source of ref(a), both through var members only. Instead of two
// walks per ref, the var-only subgraph is condensed once and each sweep
// over it answers 64 refs, one bit per ref: a var-only component is
// reached, and reaches, as a whole, so one word per component decides all
// its members. The cost is O((V+E)·⌈R/64⌉) for V var members, E edges
// among them and R ref members.
//
// local is scratch over the offline graph's nodes, all zero on entry and
// on return.
func (res *Result) pairsForSCC(n uint32, adj [][]uint32, local []uint32, vars, refs []uint32) {
	// Local indices follow var ids, so the first qualifying var in index
	// order is the smallest.
	slices.Sort(vars)
	for i, v := range vars {
		local[v] = uint32(i) + 1
	}
	for j, a := range refs {
		local[n+a] = uint32(j) + 1
	}
	// The var-only subgraph by local index (succ[off[i]:off[i+1]] are
	// var i's successors), and the SCC's stores as (var, ref) pairs.
	off := make([]uint32, len(vars)+1)
	var succ []uint32
	var stores [][2]uint32
	for i, v := range vars {
		for _, w := range adj[v] {
			switch k := local[w]; {
			case k == 0: // outside the SCC
			case w < n:
				succ = append(succ, k-1)
			default:
				stores = append(stores, [2]uint32{uint32(i), k - 1})
			}
		}
		off[i+1] = uint32(len(succ))
	}
	succs := func(i uint32) []uint32 { return succ[off[i]:off[i+1]] }
	// Comps is in reverse topological order: an edge's target component
	// never has a larger number than its source's.
	comps := scc.Tarjan(len(vars), nil, succs).Comps
	comp := make([]uint32, len(vars))
	for c, members := range comps {
		for _, i := range members {
			comp[i] = uint32(c)
		}
	}
	// from[c] / to[c]: bit j-lo set iff component c is reachable from a
	// load target of ref(refs[j]) / reaches a store source of it.
	from := make([]uint64, len(comps))
	to := make([]uint64, len(comps))
	for lo := 0; lo < len(refs); lo += 64 {
		hi := min(lo+64, len(refs))
		clear(from)
		clear(to)
		for j := lo; j < hi; j++ {
			for _, w := range adj[n+refs[j]] {
				if i := local[w]; i != 0 {
					from[comp[i-1]] |= 1 << (j - lo)
				}
			}
		}
		for _, s := range stores {
			if j := int(s[1]); lo <= j && j < hi {
				to[comp[s[0]]] |= 1 << (j - lo)
			}
		}
		// from flows along edges, so sources first; to flows against
		// them, so sinks first.
		for c := len(comps) - 1; c >= 0; c-- {
			if from[c] == 0 {
				continue
			}
			for _, i := range comps[c] {
				for _, k := range succs(i) {
					from[comp[k]] |= from[c]
				}
			}
		}
		for c := range comps {
			for _, i := range comps[c] {
				for _, k := range succs(i) {
					to[c] |= to[comp[k]]
				}
			}
		}
		// Each ref's target is the first var, in id order, whose
		// component carries its bit in both words.
		open := ^uint64(0) >> (64 - (hi - lo))
		for i, v := range vars {
			hit := from[comp[i]] & to[comp[i]] & open
			open &^= hit
			for ; hit != 0; hit &= hit - 1 {
				res.Pairs = append(res.Pairs, Pair{Deref: refs[lo+bits.TrailingZeros64(hit)], Target: v})
			}
			if open == 0 {
				break
			}
		}
	}
	for _, v := range vars {
		local[v] = 0
	}
	for _, a := range refs {
		local[n+a] = 0
	}
}
