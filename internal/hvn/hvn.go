// Package hvn implements the offline value-numbering tier of Hardekopf and
// Lin's companion paper, "Exploiting Pointer and Location Equivalence to
// Optimize Pointer Analysis" (SAS 2007): HVN (hash-based value numbering)
// and HU (Heintze–Ullman style union evaluation), run in front of OVS to
// shrink the constraint system before any solver sees it.
//
// Both passes assign every variable a pointer-equivalence label such that
// equal labels imply provably identical final points-to sets; variables
// sharing a label are then unified, and variables whose label is the
// distinguished ∅ label 0 (provably empty points-to set) have their
// constraints deleted outright. The offline constraint graph has three
// nodes per variable v:
//
//	v        the variable itself
//	ref(v)   the unknown result of dereferencing v (= n+v)
//	adr(v)   the location &v (= 2n+v)
//
// and edges
//
//	a = &b   adr(b) → a
//	a = b    b → a, plus the implicit edge ref(b) → ref(a): pts(a) ⊇ pts(b)
//	         implies that everything readable through a includes everything
//	         readable through b
//	a = *b   ref(b) → a (offset 0 only; an offset dereference lands on
//	         function slots the offline graph cannot resolve, so a is
//	         marked indirect instead)
//	*a = b   no edge. Stores only affect address-taken variables, which are
//	         already indirect (see below), so the edge would add no sound
//	         merges — and licensing merges on offline store paths is
//	         exactly the over-collapse trap the HCD precondition in
//	         docs/ALGORITHMS.md guards against.
//
// Indirect nodes — every ref node, address-taken variables (stores can add
// to them at solve time), function return/parameter slots (targets of
// offset dereferences), and destinations of offset loads — can receive
// values the offline graph cannot see, so they never share a label with
// anything outside their own strongly connected component. Within an SCC
// labels are shared: an SCC of explicit copy edges has one final solution
// online, and an SCC of ref nodes (mutual implicit edges) dereferences
// pointers with mutually-included points-to sets.
//
// HVN labels direct nodes by the set of labels reaching them: the empty
// set is label 0, a singleton reuses its one label (collapsing copy
// chains off indirect nodes), and larger sets are hash-consed so equal
// sets share one label. HU is strictly stronger: instead of comparing
// label *sets* symbolically it evaluates the unions, computing for every
// node a set over location atoms (one per adr node) and fresh atoms (one
// per indirect SCC), and interning the evaluated sets — so a ⊇ {x,y}
// reached directly and through an intermediate copy compare equal, which
// HVN's unevaluated sets cannot see.
//
// Reduce rewrites the constraints through the unification map and reports
// merged-variable / dropped-constraint counts for the metrics and bench
// layers. ReduceOVS is the same pass without the implicit ref edges, which
// is the Offline Variable Substitution that internal/ovs runs downstream;
// all three compose through the same PreUnions mechanism.
//
// # Cost
//
// A pass costs O(n + constraints) in flat arrays. The offline graph is
// built in compressed sparse row form (scc.Graph). After HVN the input is
// a tenth of the original constraints over the same variable universe, so
// most nodes have no edges at all: such a node is a singleton component
// whose label is local (fresh if indirect, else ∅) and needs no search,
// so only nodes with out-edges root the SCC search. A component's
// distinct predecessor labels are collected in one reused buffer under a
// per-label stamp. HU keeps one interned set per label, not per node: a
// component with no atom of its own and one distinct non-empty
// predecessor set shares that set and its label, and copies it only when
// a second set is unioned in, so a shared set is never mutated.
//
// Only the partition is observable. Label values and atom numbers depend
// on the search order, but a label's meaning does not: equal labels are
// equal sets (hash-consed or interned), and a fresh label is equal to no
// other. Groups are emitted in order of their first (smallest) member,
// which leads, so Reduced and PreUnions depend on the partition alone.
package hvn

import (
	"slices"
	"time"

	"antgrass/internal/bitmap"
	"antgrass/internal/constraint"
	"antgrass/internal/scc"
)

// Result is the outcome of one value-numbering pass.
type Result struct {
	// Reduced is the rewritten program (same variable universe).
	Reduced *constraint.Program
	// PreUnions lists variable pairs the solver must union before
	// solving, so queries on any original variable keep working.
	PreUnions [][2]uint32
	// Before and After are the constraint counts on either side of the
	// pass (After reflects deduplication too).
	Before, After int
	// MergedVars counts variables unified into a representative.
	MergedVars int
	// NonPointerVars counts variables proven to have empty points-to
	// sets (label 0); their constraints are dropped.
	NonPointerVars int
	// DroppedConstraints counts constraints deleted because an operand
	// was a non-pointer (plus copies made self-loops by unification);
	// duplicates removed by Dedup are visible in Before/After only.
	DroppedConstraints int
	// HU records whether union evaluation was enabled.
	HU bool
	// Duration is the pass's wall-clock time.
	Duration time.Duration
}

// ReductionPercent returns the percentage of constraints eliminated.
func (r *Result) ReductionPercent() float64 {
	if r.Before == 0 {
		return 0
	}
	return 100 * float64(r.Before-r.After) / float64(r.Before)
}

const emptyLabel = int32(0)

// labelSetHash and setHash are the hash functions behind label-set
// hash-consing (HVN) and evaluated-set interning (HU). They are variables
// so tests can force collisions and prove the equality fallback correct;
// both tables compare full contents on a hash hit.
var (
	labelSetHash = fnvLabels
	setHash      = func(b *bitmap.Bitmap) uint64 { return b.Hash() }
)

// fnvLabels is FNV-1a over the little-endian bytes of a sorted label slice.
func fnvLabels(elems []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range elems {
		x := uint32(e)
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(x))
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// consEntry is one hash-cons bucket member: a sorted label set and the
// label standing for it.
type consEntry struct {
	elems []int32
	label int32
}

// Reduce runs one value-numbering pass on p (HVN when hu is false, HU when
// true). p is not modified. Passes compose: feeding one pass's Reduced
// program to the next and concatenating their PreUnions preserves the
// solution of the original program over the original variable ids.
func Reduce(p *constraint.Program, hu bool) *Result { return reduce(p, hu, true) }

// ReduceOVS runs Offline Variable Substitution, the pass behind
// internal/ovs: HVN's labeling on the graph without the implicit edges
// ref(b) → ref(a) of copies a = b, so every ref node is a singleton
// component with a fresh label.
func ReduceOVS(p *constraint.Program) *Result { return reduce(p, false, false) }

func reduce(p *constraint.Program, hu, implicit bool) *Result {
	start := time.Now()
	n := uint32(p.NumVars)
	total := 3 * n // v, ref(v) = n+v, adr(v) = 2n+v

	// Indirect nodes receive values the offline graph cannot see.
	indirect := make([]bool, total)
	for v := n; v < 2*n; v++ {
		indirect[v] = true // all ref nodes
	}
	// Function return/parameter slots are targets of offset constraints.
	for v := uint32(0); v < n; v++ {
		if s := p.SpanOf(v); s > 1 {
			for k := uint32(1); k < s; k++ {
				indirect[v+k] = true
			}
		}
	}
	for _, c := range p.Constraints {
		switch {
		case c.Kind == constraint.AddrOf:
			indirect[c.Src] = true // address-taken
		case c.Kind == constraint.Load && c.Offset != 0:
			indirect[c.Dst] = true // unpredictable source
		}
	}
	succ, pred := scc.NewGraphs(int(total), func(edge func(from, to uint32)) {
		for _, c := range p.Constraints {
			switch c.Kind {
			case constraint.AddrOf:
				edge(2*n+c.Src, c.Dst)
			case constraint.Copy:
				edge(c.Src, c.Dst)
				if implicit {
					edge(n+c.Src, n+c.Dst)
				}
			case constraint.Load:
				if c.Offset == 0 {
					edge(n+c.Src, c.Dst)
				}
			case constraint.Store:
				// No offline edge; see the package comment.
			}
		}
	})

	lb := &labeler{
		pred:  pred,
		label: make([]int32, total),
		stamp: make([]int32, total+1),
		next:  1,
	}
	if hu {
		lb.interned = make(map[uint64][]int32)
		lb.setOf = []*bitmap.Bitmap{nil} // ∅ has no set
	} else {
		lb.cons = make(map[uint64][]consEntry)
	}
	// A node without edges is a singleton component labeled without
	// search: fresh if indirect, else ∅, the zero label. Only variables'
	// labels are read afterwards, so isolated ref and adr nodes stay
	// unlabeled.
	for v := uint32(0); v < n; v++ {
		if indirect[v] && len(succ.Succs(v)) == 0 && len(pred.Succs(v)) == 0 {
			lb.label[v] = lb.fresh()
		}
	}
	// Every other node has an out-edge or is reached by one. A non-nil
	// roots slice keeps Tarjan from rooting at every node.
	roots := make([]uint32, 0)
	for x := uint32(0); x < total; x++ {
		if len(succ.Succs(x)) > 0 {
			roots = append(roots, x)
		}
	}
	comps := scc.Tarjan(int(total), roots, succ.Succs).Comps
	// Label in topological (predecessors-first) order.
	for i := len(comps) - 1; i >= 0; i-- {
		comp := comps[i]
		// own: the component gets a fresh label (HVN) or atom (HU) of its
		// own. adr nodes have no predecessors, so they are always
		// singleton components; each is its own location. Indirectness
		// is contagious within a component.
		own := comp[0] >= 2*n
		for _, m := range comp {
			own = own || indirect[m]
		}
		var l int32
		switch {
		case hu:
			l = lb.evaluate(lb.predLabels(comp, int32(i+1)), own)
		case own:
			l = lb.fresh()
		default:
			l = lb.hashCons(lb.predLabels(comp, int32(i+1)))
		}
		for _, m := range comp {
			lb.label[m] = l
		}
	}
	label := lb.label

	// Unify variables (not refs/adrs) sharing a label, deterministically:
	// the first (smallest-id) variable with a label leads its group, and
	// groups are listed in order of their leaders.
	res := &Result{Before: len(p.Constraints), HU: hu}
	first := make([]uint32, lb.next) // by label: 1 + its first variable
	rep := make([]uint32, n)
	members := make([]uint32, n+1) // by leader, shifted by one: later members
	for v := uint32(0); v < n; v++ {
		rep[v] = v
		l := label[v]
		if l == emptyLabel {
			res.NonPointerVars++
			continue
		}
		if first[l] == 0 {
			first[l] = v + 1
			continue
		}
		rep[v] = first[l] - 1
		members[rep[v]+1]++
	}
	// Counting sort by leader: members[r] becomes the start of r's group,
	// filled in id order.
	for v := uint32(0); v < n; v++ {
		members[v+1] += members[v]
	}
	if k := members[n]; k > 0 {
		res.PreUnions = make([][2]uint32, k)
		for v := uint32(0); v < n; v++ {
			if r := rep[v]; r != v {
				res.PreUnions[members[r]] = [2]uint32{r, v}
				members[r]++
			}
		}
	}
	res.MergedVars = len(res.PreUnions)

	// Rewrite the constraints. AddrOf sources are locations, never
	// rewritten: points-to sets keep original ids (and spans).
	out := p.Clone()
	out.Constraints = out.Constraints[:0]
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.AddrOf:
			out.AddAddrOf(rep[c.Dst], c.Src)
		case constraint.Copy:
			if label[c.Src] == emptyLabel {
				res.DroppedConstraints++
				continue
			}
			if rep[c.Dst] == rep[c.Src] {
				res.DroppedConstraints++ // provably equal already
				continue
			}
			out.AddCopy(rep[c.Dst], rep[c.Src])
		case constraint.Load:
			if label[c.Src] == emptyLabel {
				res.DroppedConstraints++ // dereferencing a provable nil
				continue
			}
			out.AddLoad(rep[c.Dst], rep[c.Src], c.Offset)
		case constraint.Store:
			if label[c.Dst] == emptyLabel || label[c.Src] == emptyLabel {
				res.DroppedConstraints++
				continue
			}
			out.AddStore(rep[c.Dst], rep[c.Src], c.Offset)
		}
	}
	out.Dedup()
	res.Reduced = out
	res.After = len(out.Constraints)
	res.Duration = time.Since(start)
	return res
}

// labeler assigns pointer-equivalence labels to the components of one
// offline graph, in topological order.
type labeler struct {
	pred  *scc.Graph
	label []int32 // by node; ∅ until the node's component is labeled
	next  int32   // the next fresh label
	// stamp holds, by label, the stamp of the last component that
	// collected it, so each distinct predecessor label is taken once.
	stamp []int32
	buf   []int32 // predLabels' result

	cons map[uint64][]consEntry // HVN: label-set hash → entries

	setOf    []*bitmap.Bitmap   // HU: by label, its interned set
	interned map[uint64][]int32 // HU: set hash → labels
	nextAtom uint32             // HU: the next fresh atom
}

func (lb *labeler) fresh() int32 {
	l := lb.next
	lb.next++
	return l
}

// predLabels returns the distinct labels other than ∅ that reach comp,
// in a buffer reused by the next call. Same-component predecessors are
// still ∅ and contribute nothing; external ones are complete. stamp
// must differ from every earlier component's.
func (lb *labeler) predLabels(comp []uint32, stamp int32) []int32 {
	lb.buf = lb.buf[:0]
	for _, m := range comp {
		for _, pr := range lb.pred.Succs(m) {
			if l := lb.label[pr]; l != emptyLabel && lb.stamp[l] != stamp {
				lb.stamp[l] = stamp
				lb.buf = append(lb.buf, l)
			}
		}
	}
	return lb.buf
}

// hashCons labels a direct HVN component by the set of labels reaching it:
// ∅ for none, the one label for a singleton, and a hash-consed label
// otherwise. It sorts labels in place.
func (lb *labeler) hashCons(labels []int32) int32 {
	switch len(labels) {
	case 0:
		return emptyLabel
	case 1:
		return labels[0]
	}
	slices.Sort(labels)
	h := labelSetHash(labels)
	for _, e := range lb.cons[h] {
		if slices.Equal(e.elems, labels) {
			return e.label
		}
	}
	l := lb.fresh()
	lb.cons[h] = append(lb.cons[h], consEntry{slices.Clone(labels), l})
	return l
}

// evaluate labels an HU component by its evaluated set: a fresh atom of
// its own if own is set (an adr node's location, or the unseen part of
// an indirect component), plus the union of the sets of the labels
// reaching it. A component with no atom and one such set shares that set
// and its label; otherwise the union is built in a new set, so an
// interned set is never mutated.
func (lb *labeler) evaluate(labels []int32, own bool) int32 {
	var set *bitmap.Bitmap
	switch {
	case own:
		set = bitmap.New()
		set.Set(lb.nextAtom)
		lb.nextAtom++
	case len(labels) == 0:
		return emptyLabel
	case len(labels) == 1:
		return labels[0]
	default:
		set = lb.setOf[labels[0]].Copy()
		labels = labels[1:]
	}
	for _, l := range labels {
		set.IorWith(lb.setOf[l])
	}
	return lb.intern(set)
}

// intern returns the label of the set equal to b, registering b under a
// fresh label if there is none.
func (lb *labeler) intern(b *bitmap.Bitmap) int32 {
	h := setHash(b)
	for _, l := range lb.interned[h] {
		if lb.setOf[l].Equal(b) {
			return l
		}
	}
	l := lb.fresh()
	for int32(len(lb.setOf)) <= l {
		lb.setOf = append(lb.setOf, nil)
	}
	lb.setOf[l] = b
	lb.interned[h] = append(lb.interned[h], l)
	return l
}
