package scc

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// adjacency builds a Succs function from an edge list.
func adjacency(n int, edges [][2]uint32) Succs {
	adj := make([][]uint32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return func(x uint32) []uint32 { return adj[x] }
}

// canonical turns a component list into a sorted partition for comparison.
func canonical(comps [][]uint32) [][]uint32 {
	out := make([][]uint32, 0, len(comps))
	for _, c := range comps {
		cc := append([]uint32(nil), c...)
		sort.Slice(cc, func(i, j int) bool { return cc[i] < cc[j] })
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// bruteSCC computes the SCC partition by mutual reachability (Floyd-Warshall).
func bruteSCC(n int, edges [][2]uint32) [][]uint32 {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		reach[i][i] = true
	}
	for _, e := range edges {
		reach[e[0]][e[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	assigned := make([]bool, n)
	var comps [][]uint32
	for i := 0; i < n; i++ {
		if assigned[i] {
			continue
		}
		comp := []uint32{uint32(i)}
		assigned[i] = true
		for j := i + 1; j < n; j++ {
			if !assigned[j] && reach[i][j] && reach[j][i] {
				comp = append(comp, uint32(j))
				assigned[j] = true
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

func TestSimpleCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0, 2 -> 3
	edges := [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	for name, f := range map[string]func(int, []uint32, Succs) *Result{"tarjan": Tarjan, "nuutila": Nuutila} {
		r := f(4, nil, adjacency(4, edges))
		got := canonical(r.Comps)
		want := [][]uint32{{0, 1, 2}, {3}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: comps = %v, want %v", name, got, want)
		}
		if r.Visited != 4 {
			t.Errorf("%s: visited = %d, want 4", name, r.Visited)
		}
		// Reverse topological order: {3} (successor) must come first.
		if len(r.Comps[0]) != 1 || r.Comps[0][0] != 3 {
			t.Errorf("%s: first emitted comp = %v, want [3]", name, r.Comps[0])
		}
	}
}

func TestSelfLoop(t *testing.T) {
	edges := [][2]uint32{{0, 0}, {0, 1}}
	r := Nuutila(2, nil, adjacency(2, edges))
	got := canonical(r.Comps)
	want := [][]uint32{{0}, {1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("comps = %v, want %v", got, want)
	}
}

func TestRootsRestriction(t *testing.T) {
	// Two disconnected cycles; search only from node 0's cycle.
	edges := [][2]uint32{{0, 1}, {1, 0}, {2, 3}, {3, 2}}
	r := Tarjan(4, []uint32{0}, adjacency(4, edges))
	if r.Visited != 2 {
		t.Errorf("visited = %d, want 2", r.Visited)
	}
	got := canonical(r.Comps)
	want := [][]uint32{{0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("comps = %v, want %v", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	r := Nuutila(0, nil, func(uint32) []uint32 { return nil })
	if len(r.Comps) != 0 || r.Visited != 0 {
		t.Errorf("empty graph: %+v", r)
	}
}

func TestLongChainIterative(t *testing.T) {
	// A deep chain would blow the stack if the implementation recursed.
	const n = 200000
	edges := make([][2]uint32, 0, n)
	for i := uint32(0); i < n-1; i++ {
		edges = append(edges, [2]uint32{i, i + 1})
	}
	r := Tarjan(n, []uint32{0}, adjacency(n, edges))
	if len(r.Comps) != n {
		t.Errorf("comps = %d, want %d", len(r.Comps), n)
	}
	r2 := Nuutila(n, []uint32{0}, adjacency(n, edges))
	if len(r2.Comps) != n {
		t.Errorf("nuutila comps = %d, want %d", len(r2.Comps), n)
	}
}

func randomGraph(rng *rand.Rand, n, m int) [][2]uint32 {
	edges := make([][2]uint32, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
	}
	return edges
}

func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		m := rng.Intn(3 * n)
		edges := randomGraph(rng, n, m)
		want := canonical(bruteSCC(n, edges))
		gotT := canonical(Tarjan(n, nil, adjacency(n, edges)).Comps)
		gotN := canonical(Nuutila(n, nil, adjacency(n, edges)).Comps)
		return reflect.DeepEqual(gotT, want) && reflect.DeepEqual(gotN, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTarjanNuutilaAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		m := rng.Intn(4 * n)
		edges := randomGraph(rng, n, m)
		rt := Tarjan(n, nil, adjacency(n, edges))
		rn := Nuutila(n, nil, adjacency(n, edges))
		if rt.Visited != rn.Visited {
			return false
		}
		return reflect.DeepEqual(canonical(rt.Comps), canonical(rn.Comps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSearcherReuse runs one Searcher over a sequence of random graphs
// whose node count grows, shrinks and grows again, from random root
// subsets. The entries a search leaves behind must never leak into the
// next one: every search returns exactly what a fresh search returns, and
// the same partition as Tarjan's.
func TestSearcherReuse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Searcher
		n := 1 + rng.Intn(8)
		for call := 0; call < 20; call++ {
			switch rng.Intn(3) {
			case 0:
				n += rng.Intn(40) // grow past the arrays sized so far
			case 1:
				n = 1 + rng.Intn(n) // a smaller universe reuses a prefix
			}
			edges := randomGraph(rng, n, rng.Intn(3*n+1))
			var roots []uint32
			if rng.Intn(4) > 0 {
				for i := rng.Intn(4); i >= 0; i-- {
					roots = append(roots, uint32(rng.Intn(n)))
				}
			}
			adj := adjacency(n, edges)
			got := s.Search(n, roots, adj)
			want := Nuutila(n, roots, adj)
			if got.Visited != want.Visited || !reflect.DeepEqual(got.Comps, want.Comps) {
				t.Logf("seed %d call %d n=%d roots=%v: got %+v, want %+v", seed, call, n, roots, got, want)
				return false
			}
			tr := Tarjan(n, roots, adj)
			if got.Visited != tr.Visited || !reflect.DeepEqual(canonical(got.Comps), canonical(tr.Comps)) {
				t.Logf("seed %d call %d n=%d roots=%v: partition differs from Tarjan", seed, call, n, roots)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSearcherCostIsVisited pins the point of reuse: once its arrays are
// sized, a Searcher's small search over a million-node universe allocates
// only for its result, not for per-node state.
func TestSearcherCostIsVisited(t *testing.T) {
	const n, runs = 1 << 20, 50
	adj := adjacency(n, [][2]uint32{{0, 1}, {1, 2}, {2, 0}})
	roots := []uint32{0}
	var s Searcher
	s.Search(n, roots, adj) // size the arrays once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if r := s.Search(n, roots, adj); r.Visited != 3 || len(r.Comps) != 1 {
			t.Fatalf("search = %+v", r)
		}
	}
	runtime.ReadMemStats(&after)
	if perSearch := (after.TotalAlloc - before.TotalAlloc) / runs; perSearch > 1024 {
		t.Fatalf("a 3-node search over %d nodes allocates %d bytes, want ≤ 1024", n, perSearch)
	}
}

// TestReverseTopologicalOrder verifies the documented emission order: for
// every edge u -> v crossing components, v's component is emitted first.
func TestReverseTopologicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		edges := randomGraph(rng, n, rng.Intn(3*n))
		for name, alg := range map[string]func(int, []uint32, Succs) *Result{"t": Tarjan, "n": Nuutila} {
			_ = name
			r := alg(n, nil, adjacency(n, edges))
			pos := make([]int, n)
			for i, c := range r.Comps {
				for _, v := range c {
					pos[v] = i
				}
			}
			for _, e := range edges {
				if pos[e[0]] < pos[e[1]] {
					return false // successor emitted after predecessor
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestTopoOrderHelper(t *testing.T) {
	edges := [][2]uint32{{0, 1}, {1, 2}}
	r := Tarjan(3, nil, adjacency(3, edges))
	order := r.TopoOrder()
	pos := map[uint32]int{}
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("TopoOrder = %v, want 0 before 1 before 2", order)
	}
}

// BenchmarkSearcherSmall measures the Lazy Cycle Detection shape: a
// search that visits a few nodes of a large graph.
func BenchmarkSearcherSmall(b *testing.B) {
	const n = 1 << 16
	adj := adjacency(n, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	var s Searcher
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Search(n, []uint32{0}, adj)
	}
}

func BenchmarkNuutilaDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 5000
	edges := randomGraph(rng, n, 4*n)
	adj := adjacency(n, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Nuutila(n, nil, adj)
	}
}

// TestNewGraphs: the CSR graphs list each node's successors and
// predecessors in emission order, duplicates and self-loops included.
func TestNewGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(30)
		var edges [][2]uint32
		if n > 0 {
			for i := rng.Intn(4 * n); i > 0; i-- {
				edges = append(edges, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
			}
		}
		succ, pred := NewGraphs(n, func(edge func(from, to uint32)) {
			for _, e := range edges {
				edge(e[0], e[1])
			}
		})
		wantSucc := make([][]uint32, n)
		wantPred := make([][]uint32, n)
		for _, e := range edges {
			wantSucc[e[0]] = append(wantSucc[e[0]], e[1])
			wantPred[e[1]] = append(wantPred[e[1]], e[0])
		}
		for x := 0; x < n; x++ {
			if !slices.Equal(succ.Succs(uint32(x)), wantSucc[x]) || !slices.Equal(pred.Succs(uint32(x)), wantPred[x]) {
				t.Fatalf("trial %d node %d: succs %v preds %v, want %v %v", trial, x,
					succ.Succs(uint32(x)), pred.Succs(uint32(x)), wantSucc[x], wantPred[x])
			}
		}
	}
}
