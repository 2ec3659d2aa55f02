package worklist

import "slices"

// Frontier is a deduplicating set of pending node ids with two ways to
// consume it: Pop, one node at a time in push order (the async engine's
// per-owner dirty queues, which interleave pushes and pops), and Drain,
// all pending nodes at once in ascending id order regardless of push
// order. Push, Pop and Drain are single-threaded.
type Frontier struct {
	nodes  []uint32
	spare  []uint32 // the previous drain's buffer, recycled on the next Drain
	head   int      // consumed prefix of nodes (Pop)
	member []bool
	sorted bool
}

// NewFrontier returns an empty frontier over nodes 0..n-1.
func NewFrontier(n int) *Frontier {
	return &Frontier{member: make([]bool, n), sorted: true}
}

// Push adds x unless it is already present.
func (f *Frontier) Push(x uint32) {
	if f.member[x] {
		return
	}
	f.member[x] = true
	if f.sorted && len(f.nodes) > 0 && x < f.nodes[len(f.nodes)-1] {
		f.sorted = false
	}
	f.nodes = append(f.nodes, x)
}

// Len returns the number of pending nodes.
func (f *Frontier) Len() int { return len(f.nodes) - f.head }

// Empty reports whether no node is pending.
func (f *Frontier) Empty() bool { return f.head >= len(f.nodes) }

// Pop removes and returns one pending node — the continuous-consumption
// counterpart of Drain, used by the asynchronous solver's owner loops.
// Pop order is FIFO over pushes (no per-pop sorting); a popped node may be
// re-pushed immediately. Mixing Pop with Drain is allowed: Drain returns
// whatever Pop has not yet consumed.
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

// Drain removes and returns all pending nodes in ascending id order. The
// returned slice is valid until the NEXT Drain call: the frontier keeps
// two buffers and ping-pongs between them, so steady-state rounds push
// into one while the caller walks the other — no per-round growth.
func (f *Frontier) Drain() []uint32 {
	out := f.nodes[f.head:]
	if !f.sorted {
		slices.Sort(out)
	}
	for _, x := range out {
		f.member[x] = false
	}
	f.nodes, f.spare, f.head = f.spare[:0], f.nodes, 0
	f.sorted = true
	return out
}

// Shards splits nodes into at most k contiguous, nearly equal-sized
// slices, dropping empty shards (so the result has min(k, len(nodes))
// entries). Contiguous ranges of the ascending drain order keep each
// worker's accesses clustered in id space.
func Shards(nodes []uint32, k int) [][]uint32 {
	if k < 1 {
		k = 1
	}
	if k > len(nodes) {
		k = len(nodes)
	}
	if k == 0 {
		return nil
	}
	out := make([][]uint32, 0, k)
	chunk := (len(nodes) + k - 1) / k
	for start := 0; start < len(nodes); start += chunk {
		end := start + chunk
		if end > len(nodes) {
			end = len(nodes)
		}
		out = append(out, nodes[start:end])
	}
	return out
}
