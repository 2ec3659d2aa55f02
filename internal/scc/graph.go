package scc

// Graph is a directed graph over nodes 0..n-1 in compressed sparse row
// form: two flat arrays instead of one slice per node, so building it
// costs two allocations whatever its size, and the garbage collector has
// no per-node pointers to scan.
type Graph struct {
	off []uint32 // node x's successors are dst[off[x]:off[x+1]]
	dst []uint32
}

// Succs returns x's successors in the order their edges were emitted. It
// has the Succs signature, so a Graph's method value feeds Tarjan
// directly. The slice aliases the graph and must not be modified.
func (g *Graph) Succs(x uint32) []uint32 { return g.dst[g.off[x]:g.off[x+1]] }

// NewGraphs builds the graph over n nodes whose edges emit reports, and
// its reverse. emit is called twice, to count and then to fill, and must
// report the same edges in the same order both times.
func NewGraphs(n int, emit func(edge func(from, to uint32))) (succ, pred *Graph) {
	succ = &Graph{off: make([]uint32, n+1)}
	pred = &Graph{off: make([]uint32, n+1)}
	m := 0
	emit(func(from, to uint32) {
		succ.off[from+1]++
		pred.off[to+1]++
		m++
	})
	for x := 0; x < n; x++ {
		succ.off[x+1] += succ.off[x]
		pred.off[x+1] += pred.off[x]
	}
	succ.dst = make([]uint32, m)
	pred.dst = make([]uint32, m)
	// Fill by advancing each node's start; the starts then equal the
	// next node's, so shifting them back one restores off.
	emit(func(from, to uint32) {
		succ.dst[succ.off[from]] = to
		succ.off[from]++
		pred.dst[pred.off[to]] = from
		pred.off[to]++
	})
	copy(succ.off[1:], succ.off[:n])
	copy(pred.off[1:], pred.off[:n])
	succ.off[0], pred.off[0] = 0, 0
	return succ, pred
}
