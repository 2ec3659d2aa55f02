package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/synth"
)

// liveGrowthConfigs are the resumable LCD configurations whose step 1
// keeps per-node state across resumes: ±HCD × ±Memo × ±DiffProp.
func liveGrowthConfigs() []Options {
	var out []Options
	for _, hcd := range []bool{false, true} {
		for _, memo := range []bool{false, true} {
			for _, diff := range []bool{false, true} {
				out = append(out, Options{Algorithm: LCD, WithHCD: hcd, Memo: memo, DiffProp: diff})
			}
		}
	}
	return out
}

func liveConfigName(o Options) string {
	name := configName(o)
	if o.Memo {
		name += "+memo"
	}
	return name
}

// growFreshPointees appends one delta to p: a fresh variable that becomes
// a pointee of deref, which has a load and a store through it, plus a
// copy edge into deref so its collapsed neighbourhood grows too. It
// returns the appended constraints.
func growFreshPointees(p *constraint.Program, deref, other uint32) []constraint.Constraint {
	first := len(p.Constraints)
	fresh := p.AddVar("")
	obj := p.AddVar("")
	p.AddAddrOf(deref, fresh)
	p.AddAddrOf(other, obj)
	p.AddStore(deref, other, 0) // *deref = other
	p.AddLoad(other, deref, 0)  // other = *deref
	p.AddCopy(deref, other)
	return p.Constraints[first:]
}

// checkLiveMatchesScratch compares every variable's points-to set in the
// resumed solution against a from-scratch solve of the same program.
func checkLiveMatchesScratch(t *testing.T, l *Live, p *constraint.Program, opts Options, what string) {
	t.Helper()
	want, err := Solve(p.Clone(), opts)
	if err != nil {
		t.Fatalf("%s: scratch solve: %v", what, err)
	}
	got := l.Result()
	for v := uint32(0); v < uint32(p.NumVars); v++ {
		if g, w := got.PointsToSlice(v), want.PointsToSlice(v); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: pts(v%d) = %v after resume, want %v", what, v, g, w)
		}
	}
}

// TestLiveGrowthMatchesScratch resumes a Live over deltas whose fresh
// variables become pointees of a node with loads and stores, so the
// resumed step 1 resolves representatives the solver state was not sized
// for. Each resumed solution must equal a from-scratch solve.
func TestLiveGrowthMatchesScratch(t *testing.T) {
	// p and q form a copy cycle that LCD collapses; o1 and o2 another,
	// so p's pointees share a representative and step 1 meets repeats.
	base := func() *constraint.Program {
		p := constraint.NewProgram()
		vp, vq, o1, o2, x, y, a := p.AddVar(""), p.AddVar(""), p.AddVar(""), p.AddVar(""), p.AddVar(""), p.AddVar(""), p.AddVar("")
		p.AddAddrOf(vp, o1)
		p.AddAddrOf(vp, o2)
		p.AddCopy(vq, vp)
		p.AddCopy(vp, vq)
		p.AddCopy(o1, o2)
		p.AddCopy(o2, o1)
		p.AddAddrOf(x, a)
		p.AddStore(vp, x, 0) // *p = x
		p.AddLoad(y, vp, 0)  // y = *p
		return p
	}
	for _, opts := range liveGrowthConfigs() {
		p := base()
		l, err := NewLive(context.Background(), p, opts)
		if err != nil {
			t.Fatalf("%s: %v", liveConfigName(opts), err)
		}
		for round := 0; round < 4; round++ {
			added := growFreshPointees(p, 0, 4)
			if err := l.Add(context.Background(), added); err != nil {
				t.Fatalf("%s round %d: %v", liveConfigName(opts), round, err)
			}
			checkLiveMatchesScratch(t, l, p, opts, fmt.Sprintf("%s round %d", liveConfigName(opts), round))
		}
	}
}

// TestLiveGrowthRandom is the random-program form: every delta hangs
// fresh pointees off the dereferenced variable of an existing load or
// store, including ones at nonzero offsets.
func TestLiveGrowthRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, opts := range liveGrowthConfigs() {
			rng := rand.New(rand.NewSource(seed))
			p := synth.RandomProgram(rng)
			if p.Validate() != nil {
				continue
			}
			var derefs []uint32
			for _, c := range p.Constraints {
				switch c.Kind {
				case constraint.Load:
					derefs = append(derefs, c.Src)
				case constraint.Store:
					derefs = append(derefs, c.Dst)
				}
			}
			if len(derefs) == 0 {
				continue
			}
			l, err := NewLive(context.Background(), p, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, liveConfigName(opts), err)
			}
			for round := 0; round < 3; round++ {
				d := derefs[rng.Intn(len(derefs))]
				other := uint32(rng.Intn(p.NumVars))
				if err := l.Add(context.Background(), growFreshPointees(p, d, other)); err != nil {
					t.Fatalf("seed %d %s round %d: %v", seed, liveConfigName(opts), round, err)
				}
				checkLiveMatchesScratch(t, l, p, opts, fmt.Sprintf("seed %d %s round %d", seed, liveConfigName(opts), round))
			}
		}
	}
}
