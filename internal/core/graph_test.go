package core

import (
	"context"
	"reflect"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
	"antgrass/internal/pts"
)

func testGraph(t *testing.T, build func(p *constraint.Program)) *graph {
	t.Helper()
	p := constraint.NewProgram()
	build(p)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return newGraph(p, pts.NewBitmapFactory(), nil)
}

func TestGraphInitialState(t *testing.T) {
	g := testGraph(t, func(p *constraint.Program) {
		a := p.AddVar("a")
		b := p.AddVar("b")
		c := p.AddVar("c")
		p.AddAddrOf(a, c)
		p.AddCopy(b, a)
		p.AddLoad(c, a, 0)
		p.AddStore(a, b, 0)
	})
	if got := g.ptsOf(0).Slice(); !reflect.DeepEqual(got, []uint32{2}) {
		t.Errorf("pts(a) = %v", got)
	}
	if got := g.succsOf(0); !reflect.DeepEqual(got, []uint32{1}) {
		t.Errorf("succs(a) = %v", got)
	}
	if len(g.loads[0]) != 1 || g.loads[0][0].Other != 2 {
		t.Errorf("loads(a) = %v", g.loads[0])
	}
	if len(g.stores[0]) != 1 || g.stores[0][0].Other != 1 {
		t.Errorf("stores(a) = %v", g.stores[0])
	}
	if g.stats.EdgesAdded != 1 {
		t.Errorf("EdgesAdded = %d", g.stats.EdgesAdded)
	}
}

func TestGraphAddEdgeSelfAndDuplicate(t *testing.T) {
	g := testGraph(t, func(p *constraint.Program) {
		p.AddVar("a")
		p.AddVar("b")
	})
	if g.addEdge(0, 0) {
		t.Error("self edge must be dropped")
	}
	if !g.addEdge(0, 1) {
		t.Error("fresh edge must report new")
	}
	if g.addEdge(0, 1) {
		t.Error("duplicate edge must not report new")
	}
	// Every attempt is a probe; only the fresh edge is added.
	if g.stats.EdgeProbes != 3 || g.stats.EdgesAdded != 1 {
		t.Errorf("EdgeProbes = %d, EdgesAdded = %d, want 3 and 1", g.stats.EdgeProbes, g.stats.EdgesAdded)
	}
}

func TestGraphUniteMergesEverything(t *testing.T) {
	g := testGraph(t, func(p *constraint.Program) {
		a := p.AddVar("a")
		b := p.AddVar("b")
		c := p.AddVar("c")
		d := p.AddVar("d")
		p.AddAddrOf(a, c)
		p.AddAddrOf(b, d)
		p.AddCopy(c, a) // edge a→c
		p.AddCopy(d, b) // edge b→d
		p.AddLoad(c, a, 0)
		p.AddStore(b, d, 0)
	})
	rep := g.unite(0, 1)
	if g.find(0) != rep || g.find(1) != rep {
		t.Fatal("unite did not merge")
	}
	if got := g.ptsOf(rep).Slice(); !reflect.DeepEqual(got, []uint32{2, 3}) {
		t.Errorf("merged pts = %v", got)
	}
	succs := g.succsOf(rep)
	if len(succs) != 2 {
		t.Errorf("merged succs = %v", succs)
	}
	if len(g.loads[rep]) != 1 || len(g.stores[rep]) != 1 {
		t.Errorf("merged constraint lists: loads=%v stores=%v", g.loads[rep], g.stores[rep])
	}
	if g.stats.NodesCollapsed != 1 {
		t.Errorf("NodesCollapsed = %d", g.stats.NodesCollapsed)
	}
	// Re-unite is a no-op.
	before := g.stats.NodesCollapsed
	g.unite(0, 1)
	if g.stats.NodesCollapsed != before {
		t.Error("redundant unite must not count")
	}
}

func TestSuccsOfRepairsStaleEntries(t *testing.T) {
	g := testGraph(t, func(p *constraint.Program) {
		a := p.AddVar("a")
		b := p.AddVar("b")
		c := p.AddVar("c")
		p.AddCopy(b, a) // a→b
		p.AddCopy(c, a) // a→c
	})
	// Collapse b and c; a's successor bitmap now holds a stale id.
	rep := g.unite(1, 2)
	succs := g.succsOf(0)
	if len(succs) != 1 || succs[0] != rep {
		t.Errorf("repaired succs = %v, want [%d]", succs, rep)
	}
	// The bitmap itself must have been rewritten (one entry).
	if g.succs[0].Count() != 1 {
		t.Errorf("bitmap not compacted: %v", g.succs[0].Slice())
	}
}

func TestSuccsOfDropsSelfAfterCollapse(t *testing.T) {
	g := testGraph(t, func(p *constraint.Program) {
		a := p.AddVar("a")
		b := p.AddVar("b")
		p.AddCopy(b, a) // a→b
		p.AddCopy(a, b) // b→a
	})
	rep := g.unite(0, 1)
	if got := g.succsOf(rep); len(got) != 0 {
		t.Errorf("self-loop should be dropped after collapse: %v", got)
	}
}

func TestValidTarget(t *testing.T) {
	p := constraint.NewProgram()
	f := p.AddFunc("f", 2) // span 4
	x := p.AddVar("x")
	g := newGraph(p, pts.NewBitmapFactory(), nil)
	if _, ok := g.validTarget(x, 0); !ok {
		t.Error("offset 0 always valid")
	}
	if tgt, ok := g.validTarget(f, 3); !ok || tgt != f+3 {
		t.Errorf("validTarget(f,3) = %d,%v", tgt, ok)
	}
	if _, ok := g.validTarget(f, 4); ok {
		t.Error("offset past span must be invalid")
	}
	if _, ok := g.validTarget(x, 1); ok {
		t.Error("offset on plain var must be invalid")
	}
}

func TestApplyHCDReArmsForLaterGrowth(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	d := p.AddVar("d")
	p.AddAddrOf(a, c)
	table := &hcd.Result{Pairs: []hcd.Pair{{Deref: a, Target: b}}}
	g := newGraphDir(p, pts.NewBitmapFactory(), table, false)
	pushed := 0
	g.applyHCD(g.find(a), func(uint32) { pushed++ })
	if g.find(c) != g.find(b) {
		t.Fatal("first member not collapsed with target")
	}
	if pushed != 1 {
		t.Errorf("pushed = %d", pushed)
	}
	// pts(a) grows: the tuple must fire again for the new member.
	g.ptsOf(g.find(a)).Insert(d)
	g.applyHCD(g.find(a), func(uint32) { pushed++ })
	if g.find(d) != g.find(b) {
		t.Error("tuple did not re-fire for the new member")
	}
}

func TestMemBytesAccountsPieces(t *testing.T) {
	g := testGraph(t, func(p *constraint.Program) {
		a := p.AddVar("a")
		b := p.AddVar("b")
		p.AddAddrOf(a, b)
		p.AddCopy(b, a)
		p.AddLoad(a, b, 0)
	})
	m := g.memBytes()
	if m <= 0 {
		t.Fatalf("memBytes = %d", m)
	}
	// Growing a points-to set must grow the accounting.
	for i := uint32(0); i < 1000; i += 3 {
		g.ptsOf(0).Insert(i % 2) // small set: little growth
	}
	big := g.ptsOf(1)
	for i := uint32(0); i < 100000; i += 130 {
		big.Insert(i)
	}
	if g.memBytes() <= m {
		t.Error("memBytes should grow with set contents")
	}
}

func TestReversedGraphOrientation(t *testing.T) {
	p := constraint.NewProgram()
	a := p.AddVar("a")
	b := p.AddVar("b")
	p.AddCopy(b, a) // semantic edge a→b
	g := newGraphDir(p, pts.NewBitmapFactory(), nil, true)
	// Reversed: adjacency lists b's predecessors.
	if got := g.succsOf(b); !reflect.DeepEqual(got, []uint32{a}) {
		t.Errorf("reversed adjacency of b = %v, want [a]", got)
	}
	if got := g.succsOf(a); len(got) != 0 {
		t.Errorf("reversed adjacency of a = %v, want empty", got)
	}
}

// TestStatsHCDPairs: Stats.HCDPairs reports the size of the table the
// solve used, whether the solve computed it or was handed one, on the
// sequential, async and resumable paths alike.
func TestStatsHCDPairs(t *testing.T) {
	p := constraint.NewProgram()
	o := p.AddVar("o")
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	p.AddAddrOf(a, b)
	p.AddAddrOf(b, o)
	p.AddLoad(c, a, 0)  // ref(a) → c
	p.AddStore(a, c, 0) // c → ref(a): one pair, (a, c)
	for _, tc := range []struct {
		name string
		opts Options
		want int
	}{
		{"computed", Options{Algorithm: LCD, WithHCD: true}, 1},
		{"precomputed empty", Options{Algorithm: LCD, WithHCD: true, HCDTable: &hcd.Result{}}, 0},
		{"async", Options{Algorithm: LCD, WithHCD: true, Workers: 2}, 1},
		{"no hcd", Options{Algorithm: LCD}, 0},
	} {
		r, err := Solve(p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.HCDPairs != tc.want {
			t.Errorf("%s: HCDPairs = %d, want %d", tc.name, r.Stats.HCDPairs, tc.want)
		}
	}
	l, err := NewLive(context.Background(), p, Options{Algorithm: LCD, WithHCD: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().HCDPairs; got != 1 {
		t.Errorf("live: HCDPairs = %d, want 1", got)
	}
}
