package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/synth"
)

// exhaustiveSolve is a second, even dumber fixpoint evaluator: rescan the
// whole constraint list until a full pass changes nothing. It exists only
// to cross-check Reference — the two share no evaluation strategy, so a
// worklist-scheduling bug in Reference cannot hide.
func exhaustiveSolve(p *constraint.Program) []map[uint32]bool {
	n := p.NumVars
	sets := make([]map[uint32]bool, n)
	for i := range sets {
		sets[i] = map[uint32]bool{}
	}
	union := func(dst, src uint32) bool {
		ch := false
		for v := range sets[src] {
			if !sets[dst][v] {
				sets[dst][v] = true
				ch = true
			}
		}
		return ch
	}
	for changed := true; changed; {
		changed = false
		for _, c := range p.Constraints {
			switch c.Kind {
			case constraint.AddrOf:
				if !sets[c.Dst][c.Src] {
					sets[c.Dst][c.Src] = true
					changed = true
				}
			case constraint.Copy:
				if union(c.Dst, c.Src) {
					changed = true
				}
			case constraint.Load:
				for _, v := range snapshot(sets[c.Src]) {
					if c.Offset != 0 && c.Offset >= p.SpanOf(v) {
						continue
					}
					if union(c.Dst, v+c.Offset) {
						changed = true
					}
				}
			case constraint.Store:
				for _, v := range snapshot(sets[c.Dst]) {
					if c.Offset != 0 && c.Offset >= p.SpanOf(v) {
						continue
					}
					if union(v+c.Offset, c.Src) {
						changed = true
					}
				}
			}
		}
	}
	return sets
}

// TestReferenceMatchesExhaustive: the worklist reference and the rescan
// evaluator agree on random programs, so the oracle's own ground truth is
// itself double-checked.
func TestReferenceMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := synth.RandomProgram(rng)
		if p.Validate() != nil {
			continue
		}
		got := Reference(p)
		want := exhaustiveSolve(p)
		for v := 0; v < p.NumVars; v++ {
			if !reflect.DeepEqual(got[v], want[v]) {
				t.Fatalf("iteration %d: pts(v%d): worklist %v, exhaustive %v\nprogram: %v",
					i, v, got[v], want[v], p.Constraints)
			}
		}
	}
}

// TestMatrixShape pins the coverage guarantees of the default matrix:
// every core algorithm appears with both points-to representations, with
// and without HCD; the parallel worker counts and the single-owner async
// cells are present; and BLQ is registered with and without HCD.
func TestMatrixShape(t *testing.T) {
	names := map[string]bool{}
	for _, cfg := range Matrix() {
		if names[cfg.Name] {
			t.Errorf("duplicate config name %q", cfg.Name)
		}
		names[cfg.Name] = true
	}
	for _, alg := range []string{"naive", "lcd", "ht", "pkh", "pkw"} {
		for _, repr := range []string{"bitmap", "bdd"} {
			for _, hcd := range []string{"", "+hcd"} {
				want := alg + hcd + "/" + repr
				if !names[want] {
					t.Errorf("matrix missing config %q", want)
				}
			}
		}
	}
	for _, alg := range []string{"naive", "lcd"} {
		for _, hcd := range []string{"", "+hcd"} {
			for _, w := range matrixWorkers {
				want := fmt.Sprintf("%s%s/bitmap/w%d", alg, hcd, w)
				if !names[want] {
					t.Errorf("matrix missing config %q", want)
				}
			}
			if !names[alg+hcd+"+diff/bitmap"] {
				t.Errorf("matrix missing config %q", alg+hcd+"+diff/bitmap")
			}
			if want := alg + hcd + "+async/bitmap/w1"; !names[want] {
				t.Errorf("matrix missing single-owner async config %q", want)
			}
		}
	}
	if !names["blq"] || !names["blq+hcd"] {
		t.Error("matrix missing blq configurations")
	}
	for _, tier := range []string{"hvn", "hu", "hvn+hu", "hvn+hu+ovs"} {
		for _, alg := range []string{"naive", "lcd"} {
			for _, hcd := range []string{"", "+hcd"} {
				want := alg + "+" + tier + hcd + "/bitmap"
				if !names[want] {
					t.Errorf("matrix missing offline config %q", want)
				}
			}
		}
	}
	for _, hcd := range []string{"", "+hcd"} {
		for _, w := range matrixWorkers {
			want := fmt.Sprintf("lcd+hvn+hu%s/bitmap/w%d", hcd, w)
			if !names[want] {
				t.Errorf("matrix missing parallel offline config %q", want)
			}
		}
	}
}

// TestCheckQuickRandom is the oracle-side twin of the core package's
// cross-solver quick test: random programs, the full matrix, no
// divergences. (Smaller count than core's — the matrix is ~3x wider.)
func TestCheckQuickRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix random sweep is not short")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		p := synth.RandomProgram(rng)
		if p.Validate() != nil {
			continue
		}
		d, err := Check(p)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			t.Fatalf("iteration %d: %s\nprogram: %v", i, d, p.Constraints)
		}
	}
}

// brokenConfig returns a deliberately wrong configuration: it solves the
// program with its final constraint deleted. Used to prove Check actually
// reports divergences and Shrink actually minimizes them.
func brokenConfig() Config {
	return Config{
		Name: "broken",
		Solve: func(p *constraint.Program) (Solution, error) {
			q := p.Clone()
			if len(q.Constraints) > 0 {
				q.Constraints = q.Constraints[:len(q.Constraints)-1]
			}
			return refSolution{sets: Reference(q)}, nil
		},
	}
}

// refSolution adapts Reference output to the Solution interface.
type refSolution struct{ sets []map[uint32]bool }

func (r refSolution) PointsToSlice(v uint32) []uint32 {
	s := snapshot(r.sets[v])
	sortU32(s)
	if len(s) == 0 {
		return nil
	}
	return s
}

func TestCheckReportsDivergence(t *testing.T) {
	p := constraint.NewProgram()
	o := p.AddVar("o")
	x := p.AddVar("x")
	y := p.AddVar("y")
	p.AddAddrOf(x, o)
	p.AddCopy(y, x) // the broken config drops this
	d, err := Check(p, WithConfigs(brokenConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("broken config must diverge")
	}
	if d.Config != "broken" || d.Var != y {
		t.Errorf("divergence = %+v, want config broken at var %d", d, y)
	}
	if len(d.Got) != 0 || !reflect.DeepEqual(d.Want, []uint32{o}) {
		t.Errorf("divergence sets = got %v want %v; expected got [] want [%d]", d.Got, d.Want, o)
	}
	if d.String() == "" {
		t.Error("String() must render")
	}
}

func TestCheckInvalidProgram(t *testing.T) {
	p := constraint.NewProgram()
	p.AddVar("a")
	p.AddCopy(0, 9)
	if _, err := Check(p); err == nil {
		t.Error("invalid program must error, not diverge")
	}
}
