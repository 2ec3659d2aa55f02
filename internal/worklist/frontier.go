package worklist

// Frontier is a deduplicating FIFO of pending node ids: the async
// engine's per-owner dirty queues, which interleave pushes and pops. Push
// and Pop are single-threaded.
type Frontier struct {
	nodes  []uint32
	head   int // consumed prefix of nodes
	member []bool
}

// NewFrontier returns an empty frontier over nodes 0..n-1.
func NewFrontier(n int) *Frontier {
	return &Frontier{member: make([]bool, n)}
}

// Push adds x unless it is already present.
func (f *Frontier) Push(x uint32) {
	if f.member[x] {
		return
	}
	f.member[x] = true
	f.nodes = append(f.nodes, x)
}

// Len returns the number of pending nodes.
func (f *Frontier) Len() int { return len(f.nodes) - f.head }

// Empty reports whether no node is pending.
func (f *Frontier) Empty() bool { return f.head >= len(f.nodes) }

// Pop removes and returns the oldest pending node. Pop order is FIFO over
// pushes; a popped node may be re-pushed immediately.
func (f *Frontier) Pop() (uint32, bool) {
	if f.head >= len(f.nodes) {
		f.nodes = f.nodes[:0]
		f.head = 0
		return 0, false
	}
	x := f.nodes[f.head]
	f.head++
	f.member[x] = false
	if f.head == len(f.nodes) {
		f.nodes = f.nodes[:0]
		f.head = 0
	}
	return x, true
}
