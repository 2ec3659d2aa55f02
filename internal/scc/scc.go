// Package scc computes strongly connected components of directed graphs.
//
// Two algorithms are provided: Tarjan's classic single-pass algorithm [26]
// and Nuutila and Soisalon-Soininen's variant [19], which avoids pushing
// nodes of trivial components onto the component stack. The paper's solvers
// use the Nuutila variant (§5.1); both are implemented here and
// property-tested against each other and against a brute-force reachability
// oracle.
//
// Both entry points visit only nodes reachable from the given roots, which
// is what Lazy Cycle Detection needs (a search rooted at the target of a
// propagation edge), and both report the number of nodes visited, which is
// the "nodes searched" statistic of §5.3. A Searcher runs the Nuutila
// search repeatedly at a cost proportional to the nodes each search
// visits, which is what a solver making thousands of small searches over
// one large graph needs; Nuutila is its one-shot form.
package scc

// Succs returns the successors of node x. The returned slice is owned by the
// callee's caller: the algorithms retain it only while x's frame is live and
// never modify it.
type Succs func(x uint32) []uint32

// Result holds the outcome of an SCC computation.
type Result struct {
	// Comps lists every visited component in reverse topological order:
	// if the condensed graph has an edge C1 -> C2, then C2 appears before
	// C1. Trivial (single-node) components are included.
	Comps [][]uint32
	// Visited is the number of distinct nodes visited by the search.
	Visited int
}

// TopoOrder returns the visited component representatives (first member of
// each component) in topological order (predecessors first).
func (r *Result) TopoOrder() []uint32 {
	out := make([]uint32, len(r.Comps))
	for i, c := range r.Comps {
		out[len(out)-1-i] = c[0]
	}
	return out
}

const unvisited = 0

type tarjanState struct {
	succs   Succs
	index   []uint32 // 1-based discovery index; 0 = unvisited
	lowlink []uint32
	onstack []bool
	stack   []uint32
	frames  []frame
	nextIdx uint32
	res     *Result
}

type frame struct {
	v    uint32
	out  []uint32
	next int
}

// Tarjan computes the SCCs reachable from roots in a graph with nodes
// 0..n-1. If roots is nil, all nodes are used as roots.
func Tarjan(n int, roots []uint32, succs Succs) *Result {
	s := &tarjanState{
		succs:   succs,
		index:   make([]uint32, n),
		lowlink: make([]uint32, n),
		onstack: make([]bool, n),
		res:     &Result{},
	}
	if roots == nil {
		for v := 0; v < n; v++ {
			if s.index[v] == unvisited {
				s.visit(uint32(v))
			}
		}
	} else {
		for _, v := range roots {
			if s.index[v] == unvisited {
				s.visit(v)
			}
		}
	}
	return s.res
}

func (s *tarjanState) push(v uint32) {
	s.nextIdx++
	s.index[v] = s.nextIdx
	s.lowlink[v] = s.nextIdx
	s.onstack[v] = true
	s.stack = append(s.stack, v)
	s.frames = append(s.frames, frame{v: v, out: s.succs(v)})
	s.res.Visited++
}

func (s *tarjanState) visit(root uint32) {
	s.push(root)
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		if f.next < len(f.out) {
			w := f.out[f.next]
			f.next++
			if s.index[w] == unvisited {
				s.push(w)
			} else if s.onstack[w] && s.index[w] < s.lowlink[f.v] {
				s.lowlink[f.v] = s.index[w]
			}
			continue
		}
		// All successors of f.v processed.
		v := f.v
		if s.lowlink[v] == s.index[v] {
			var comp []uint32
			for {
				w := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.onstack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			s.res.Comps = append(s.res.Comps, comp)
		}
		s.frames = s.frames[:len(s.frames)-1]
		if len(s.frames) > 0 {
			p := &s.frames[len(s.frames)-1]
			if s.lowlink[v] < s.lowlink[p.v] {
				s.lowlink[p.v] = s.lowlink[v]
			}
		}
	}
}

// Searcher runs Nuutila and Soisalon-Soininen's variant of Tarjan's
// algorithm, which keeps only candidate component members on the explicit
// stack, repeatedly over one node universe that may grow between calls.
// Its per-node arrays are sized to the largest n seen and reset, at the
// start of each search, only at the nodes the previous search touched — so
// a search rooted in a small region costs O(nodes visited), not O(n). That
// is the shape of Lazy Cycle Detection's searches: thousands of checks
// that each visit a handful of nodes of a large graph.
//
// The zero value is ready to use. A Searcher is not safe for concurrent
// use.
type Searcher struct {
	succs       Succs
	index       []uint32 // 1-based discovery index; 0 = unvisited
	root        []uint32 // candidate root (by node id), valid once visited
	inComponent []bool
	touched     []uint32 // nodes visited by the last search
	stack       []uint32 // only potential non-root members are stacked
	frames      []frame
	nextIdx     uint32
	res         *Result
}

// Nuutila computes the SCCs reachable from roots with a fresh Searcher.
// If roots is nil, all nodes are used as roots.
func Nuutila(n int, roots []uint32, succs Succs) *Result {
	var s Searcher
	return s.Search(n, roots, succs)
}

// Search computes the SCCs reachable from roots in a graph with nodes
// 0..n-1. If roots is nil, all nodes are used as roots. The result is the
// same as Nuutila's on the same arguments, and owned by the caller.
func (s *Searcher) Search(n int, roots []uint32, succs Succs) *Result {
	for _, v := range s.touched {
		s.index[v] = unvisited
		s.inComponent[v] = false
	}
	s.touched, s.stack, s.frames = s.touched[:0], s.stack[:0], s.frames[:0]
	if n > len(s.index) {
		s.index = append(s.index, make([]uint32, n-len(s.index))...)
		s.root = append(s.root, make([]uint32, n-len(s.root))...)
		s.inComponent = append(s.inComponent, make([]bool, n-len(s.inComponent))...)
	}
	s.succs, s.nextIdx, s.res = succs, 0, &Result{}
	if roots == nil {
		for v := 0; v < n; v++ {
			if s.index[v] == unvisited {
				s.visit(uint32(v))
			}
		}
	} else {
		for _, v := range roots {
			if s.index[v] == unvisited {
				s.visit(v)
			}
		}
	}
	res := s.res
	s.succs, s.res = nil, nil // drop the caller's closure and result
	return res
}

func (s *Searcher) push(v uint32) {
	s.nextIdx++
	s.index[v] = s.nextIdx
	s.root[v] = v
	s.touched = append(s.touched, v)
	s.frames = append(s.frames, frame{v: v, out: s.succs(v)})
	s.res.Visited++
}

func (s *Searcher) visit(start uint32) {
	s.push(start)
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		if f.next < len(f.out) {
			w := f.out[f.next]
			f.next++
			if s.index[w] == unvisited {
				s.push(w)
			} else if !s.inComponent[w] {
				if s.index[s.root[w]] < s.index[s.root[f.v]] {
					s.root[f.v] = s.root[w]
				}
			}
			continue
		}
		v := f.v
		f.out = nil // the frame array outlives the search; drop the caller's slice
		s.frames = s.frames[:len(s.frames)-1]
		if s.root[v] == v {
			s.inComponent[v] = true
			comp := []uint32{v}
			for len(s.stack) > 0 && s.index[s.stack[len(s.stack)-1]] > s.index[v] {
				w := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.inComponent[w] = true
				comp = append(comp, w)
			}
			s.res.Comps = append(s.res.Comps, comp)
		} else {
			s.stack = append(s.stack, v)
		}
		if len(s.frames) > 0 {
			p := &s.frames[len(s.frames)-1]
			if !s.inComponent[v] && s.index[s.root[v]] < s.index[s.root[p.v]] {
				s.root[p.v] = s.root[v]
			}
		}
	}
}
