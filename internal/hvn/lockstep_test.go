package hvn

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"antgrass/internal/bitmap"
	"antgrass/internal/constraint"
	"antgrass/internal/synth"
)

// checkPass fails t unless Reduce(p, hu) equals the reference exactly:
// the same rewritten program, the same pre-unions in the same order, and
// the same counts. It returns Reduce's result.
func checkPass(t *testing.T, name string, p *constraint.Program, hu bool) *Result {
	t.Helper()
	got, want := Reduce(p, hu), referenceReduce(p, hu)
	if !reflect.DeepEqual(got.Reduced, want.Reduced) {
		t.Fatalf("%s hu=%v: Reduced = %v, reference %v", name, hu, got.Reduced.Constraints, want.Reduced.Constraints)
	}
	if !slices.Equal(got.PreUnions, want.PreUnions) {
		t.Fatalf("%s hu=%v: PreUnions = %v, reference %v", name, hu, got.PreUnions, want.PreUnions)
	}
	if got.Before != want.Before || got.After != want.After || got.MergedVars != want.MergedVars ||
		got.NonPointerVars != want.NonPointerVars || got.DroppedConstraints != want.DroppedConstraints {
		t.Fatalf("%s hu=%v: counts %+v, reference %+v", name, hu, *got, *want)
	}
	return got
}

// checkOVS fails t unless ReduceOVS(p) equals the OVS reference. The
// reference lists its pre-unions in map order, so they are compared as
// sets; the new order is checked separately (see ovs's
// TestDeterministicPreUnions).
func checkOVS(t *testing.T, name string, p *constraint.Program) *Result {
	t.Helper()
	got, want := ReduceOVS(p), referenceOVS(p)
	if !reflect.DeepEqual(got.Reduced, want.Reduced) {
		t.Fatalf("%s ovs: Reduced = %v, reference %v", name, got.Reduced.Constraints, want.Reduced.Constraints)
	}
	gotPre, wantPre := slices.Clone(got.PreUnions), slices.Clone(want.PreUnions)
	cmp := func(a, b [2]uint32) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	}
	slices.SortFunc(gotPre, cmp)
	slices.SortFunc(wantPre, cmp)
	if !slices.Equal(gotPre, wantPre) {
		t.Fatalf("%s ovs: PreUnions = %v, reference %v", name, gotPre, wantPre)
	}
	if got.Before != want.Before || got.After != want.After || got.MergedVars != len(want.PreUnions) {
		t.Fatalf("%s ovs: Before/After/MergedVars %d/%d/%d, reference %d/%d/%d", name,
			got.Before, got.After, got.MergedVars, want.Before, want.After, len(want.PreUnions))
	}
	return got
}

// checkAll runs every pass on p against its reference.
func checkAll(t *testing.T, name string, p *constraint.Program) {
	t.Helper()
	checkPass(t, name, p, false)
	checkPass(t, name, p, true)
	checkOVS(t, name, p)
}

// TestLockstepRandomPrograms: on the random programs the oracle draws
// from, HVN, HU and OVS agree with the references.
func TestLockstepRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 2500; seed++ {
		p := synth.RandomProgram(rand.New(rand.NewSource(seed)))
		checkAll(t, fmt.Sprintf("seed %d", seed), p)
	}
}

// TestLockstepForcedCollisions: with every label set and every evaluated
// set in one hash bucket, the equality fallbacks keep the partition.
func TestLockstepForcedCollisions(t *testing.T) {
	oldLabels, oldSets := labelSetHash, setHash
	labelSetHash = func([]int32) uint64 { return 42 }
	setHash = func(*bitmap.Bitmap) uint64 { return 7 }
	defer func() { labelSetHash, setHash = oldLabels, oldSets }()
	for seed := int64(0); seed < 300; seed++ {
		p := synth.RandomProgram(rand.New(rand.NewSource(seed)))
		checkAll(t, fmt.Sprintf("seed %d", seed), p)
	}
}

// TestLockstepIsolatedIndirect: variables with no offline edges are
// labeled without search. An indirect one (a function slot, the target
// of an offset load) must get a fresh label — not ∅, which would drop the
// constraints through it, and not one shared with another isolated var.
func TestLockstepIsolatedIndirect(t *testing.T) {
	p := constraint.NewProgram()
	f := p.AddFunc("f", 2) // slots f+1, f+2 have no constraints at all
	q := p.AddVar("q")
	d := p.AddVar("d")
	e := p.AddVar("e")
	y := p.AddVar("y")
	p.AddAddrOf(q, f)
	p.AddLoad(d, q, 1) // d and e: offset-load targets, no edges of their own
	p.AddLoad(e, q, 2)
	p.AddLoad(y, d, 0) // reads ref(d), not d
	checkAll(t, "isolated indirect", p)
	for _, hu := range []bool{false, true} {
		r := Reduce(p, hu)
		for _, pair := range [][2]uint32{{d, e}, {f + 1, f + 2}, {d, f + 1}} {
			if unioned(r, pair[0], pair[1]) {
				t.Errorf("hu=%v: isolated indirect vars %d and %d merged", hu, pair[0], pair[1])
			}
		}
		if !slices.Contains(r.Reduced.Constraints, constraint.Constraint{Kind: constraint.Load, Dst: y, Src: d}) {
			t.Errorf("hu=%v: load through isolated indirect d dropped: %v", hu, r.Reduced.Constraints)
		}
	}
}

// TestLockstepIsolatedAddressTaken: an address-taken variable whose own
// node has no edges is indirect: stores through it survive and it merges
// with nothing.
func TestLockstepIsolatedAddressTaken(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	a := p.AddVar("a")
	b := p.AddVar("b")
	w := p.AddVar("w")
	p.AddAddrOf(a, x)
	p.AddAddrOf(b, y)
	p.AddAddrOf(w, a)
	p.AddStore(x, w, 0) // *x = w, kept only if x is labeled non-∅
	checkAll(t, "isolated address-taken", p)
	for _, hu := range []bool{false, true} {
		r := Reduce(p, hu)
		if unioned(r, x, y) {
			t.Errorf("hu=%v: isolated address-taken x and y merged", hu)
		}
		if !slices.Contains(r.Reduced.Constraints, constraint.Constraint{Kind: constraint.Store, Dst: x, Src: w}) {
			t.Errorf("hu=%v: store through address-taken x dropped: %v", hu, r.Reduced.Constraints)
		}
	}
}

// TestLockstepAddressOfOnly: OVS nodes whose only inputs are address-of
// constraints merge exactly when they take the same addresses. The
// reference feeds those as location labels, the engine as adr nodes.
func TestLockstepAddressOfOnly(t *testing.T) {
	p := constraint.NewProgram()
	x := p.AddVar("x")
	y := p.AddVar("y")
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	d := p.AddVar("d")
	p.AddAddrOf(a, x)
	p.AddAddrOf(b, x)
	p.AddAddrOf(c, x)
	p.AddAddrOf(c, y)
	p.AddAddrOf(d, y)
	p.AddAddrOf(d, x)
	checkAll(t, "address-of only", p)
	r := ReduceOVS(p)
	if !unioned(r, a, b) || !unioned(r, c, d) || unioned(r, a, c) {
		t.Errorf("want {a,b} and {c,d} merged apart, got pre-unions %v", r.PreUnions)
	}
}

// TestLockstepSharedSetNotMutated: HU shares a predecessor's set with a
// component that adds nothing, and copies it before a second union. If
// extending c's shared set {x,w} with y mutated a's, then d, which
// evaluates {x,w} afresh after c, would miss a's entry in the intern
// table and stay apart from a. d is declared first and given an
// out-edge, so the search finishes it first and labels it last.
func TestLockstepSharedSetNotMutated(t *testing.T) {
	p := constraint.NewProgram()
	d := p.AddVar("d")
	e := p.AddVar("e")
	x := p.AddVar("x")
	w := p.AddVar("w")
	y := p.AddVar("y")
	a := p.AddVar("a")
	b := p.AddVar("b")
	c := p.AddVar("c")
	c2 := p.AddVar("c2")
	h := p.AddVar("h")
	p.AddAddrOf(d, x)
	p.AddAddrOf(d, w)
	p.AddCopy(e, d)
	p.AddAddrOf(a, x)
	p.AddAddrOf(a, w)
	p.AddCopy(b, a) // b shares a's set {x,w}
	p.AddCopy(c, b) // c starts from the shared set...
	p.AddAddrOf(c, y)
	p.AddAddrOf(c2, y) // ...c2 from y's, then unions the shared one
	p.AddCopy(c2, b)
	p.AddAddrOf(h, x)
	p.AddAddrOf(h, w)
	p.AddAddrOf(h, y)
	checkAll(t, "shared set", p)
	r := Reduce(p, true)
	for _, m := range []uint32{b, d, e} {
		if !unioned(r, a, m) {
			t.Errorf("%d not merged with a: pre-unions %v", m, r.PreUnions)
		}
	}
	for _, m := range []uint32{c2, h} {
		if !unioned(r, c, m) {
			t.Errorf("%d not merged with c: pre-unions %v", m, r.PreUnions)
		}
	}
	if unioned(r, a, c) {
		t.Errorf("{x,w} and {x,w,y} merged: pre-unions %v", r.PreUnions)
	}
}

// TestPaperScaleOffline runs the HVN → HU → OVS ladder on all six paper
// profiles at full size, each pass on the previous pass's output, and
// checks every pass against its reference. (internal/hcd's test of the
// same name checks the HCD pass on the ladder's output.)
func TestPaperScaleOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale programs")
	}
	for _, prof := range synth.PaperProfiles {
		p := synth.Generate(prof)
		r := checkPass(t, prof.Name, p, false)
		r = checkPass(t, prof.Name, r.Reduced, true)
		o := checkOVS(t, prof.Name, r.Reduced)
		t.Logf("%s: %d -> %d (HVN+HU) -> %d (OVS) constraints", prof.Name, len(p.Constraints), r.After, o.After)
	}
}

var reduceSink *Result

// BenchmarkReduce times HVN on linux at paper size and HU on HVN's
// output, each on its pipeline input.
func BenchmarkReduce(b *testing.B) {
	prof, _ := synth.ProfileByName("linux")
	raw := synth.Generate(prof)
	afterHVN := Reduce(raw, false).Reduced
	for _, bc := range []struct {
		name string
		p    *constraint.Program
		hu   bool
	}{{"hvn", raw, false}, {"hu", afterHVN, true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reduceSink = Reduce(bc.p, bc.hu)
			}
		})
	}
}
