package hcd

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/hvn"
	"antgrass/internal/scc"
	"antgrass/internal/synth"
)

// twoWalkAnalyze is the offline analysis as first written: per mixed SCC
// and per ref member, one forward and one backward walk over the SCC's var
// members. It is quadratic in the worst case and kept only as the
// reference Analyze must agree with. It also returns the number of ref
// members of each mixed SCC, so tests can check which shapes they cover.
func twoWalkAnalyze(p *constraint.Program) (*Result, []int) {
	n := uint32(p.NumVars)
	adj := make([][]uint32, 2*n)
	for _, c := range p.Constraints {
		switch c.Kind {
		case constraint.Copy:
			adj[c.Src] = append(adj[c.Src], c.Dst)
		case constraint.Load:
			if c.Offset == 0 {
				adj[n+c.Src] = append(adj[n+c.Src], c.Dst)
			}
		case constraint.Store:
			if c.Offset == 0 {
				adj[c.Src] = append(adj[c.Src], n+c.Dst)
			}
		}
	}
	res := &Result{}
	var mixed []int
	for _, comp := range scc.Tarjan(int(2*n), nil, func(x uint32) []uint32 { return adj[x] }).Comps {
		if len(comp) < 2 {
			continue
		}
		res.SCCs++
		var vars, refs []uint32
		for _, m := range comp {
			if m < n {
				vars = append(vars, m)
			} else {
				refs = append(refs, m-n)
			}
		}
		if len(refs) == 0 {
			for i := 1; i < len(vars); i++ {
				res.PreUnions = append(res.PreUnions, [2]uint32{vars[0], vars[i]})
			}
			continue
		}
		if len(vars) == 0 {
			continue
		}
		mixed = append(mixed, len(refs))
		twoWalkPairs(res, n, adj, vars, refs)
	}
	sort.Slice(res.Pairs, func(i, j int) bool { return res.Pairs[i].Deref < res.Pairs[j].Deref })
	return res, mixed
}

func twoWalkPairs(res *Result, n uint32, adj [][]uint32, vars, refs []uint32) {
	idx := make(map[uint32]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	fwd := make([][]int, len(vars))
	rev := make([][]int, len(vars))
	refOut := make(map[uint32][]int, len(refs))
	refIn := make(map[uint32][]int, len(refs))
	isRef := make(map[uint32]bool, len(refs))
	for _, a := range refs {
		isRef[a] = true
	}
	for i, v := range vars {
		for _, w := range adj[v] {
			if w < n {
				if j, ok := idx[w]; ok {
					fwd[i] = append(fwd[i], j)
					rev[j] = append(rev[j], i)
				}
			} else if isRef[w-n] {
				refIn[w-n] = append(refIn[w-n], i)
			}
		}
	}
	for _, a := range refs {
		for _, w := range adj[n+a] {
			if j, ok := idx[w]; ok {
				refOut[a] = append(refOut[a], j)
			}
		}
	}
	reach := func(starts []int, edges [][]int) []bool {
		seen := make([]bool, len(vars))
		stack := append([]int(nil), starts...)
		for _, s := range starts {
			seen[s] = true
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range edges[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return seen
	}
	for _, a := range refs {
		from := reach(refOut[a], fwd)
		to := reach(refIn[a], rev)
		best, found := uint32(0), false
		for i, v := range vars {
			if from[i] && to[i] && (!found || v < best) {
				best, found = v, true
			}
		}
		if found {
			res.Pairs = append(res.Pairs, Pair{Deref: a, Target: best})
		}
	}
}

// ringProgram builds a program whose offline graph has one mixed SCC with
// exactly refs ref members. Its backbone is the ring
//
//	ref(a_0) → v_0 → ref(a_1) → v_1 → … → v_{refs-1} → ref(a_0)
//
// in which, without chords, every ref's only cycle passes through every
// other ref, so no pair is licensed. On top of it come chords (random
// copies, some of which give a ref a var-only return path), short copy
// cycles among ring vars (var-only sub-SCCs inside the mixed SCC), extra
// loads and stores on the ring's bases, and offset loads and stores,
// which contribute no offline edges. Only ring bases are dereferenced at
// offset 0, so no other ref node can join the SCC.
func ringProgram(rng *rand.Rand, refs, chords int) *constraint.Program {
	p := constraint.NewProgram()
	f := p.AddFunc("f", 3)
	ring := make([]uint32, refs)
	bases := make([]uint32, refs)
	for k := range ring {
		ring[k] = p.AddVar(fmt.Sprintf("v%d", k))
	}
	for k := range bases {
		bases[k] = p.AddVar(fmt.Sprintf("a%d", k))
	}
	for k := rng.Intn(refs + 8); k > 0; k-- {
		p.AddVar(fmt.Sprintf("x%d", k))
	}
	n := p.NumVars
	anyVar := func() uint32 { return uint32(rng.Intn(n)) }
	for k := range ring {
		p.AddLoad(ring[k], bases[k], 0)
		p.AddStore(bases[(k+1)%refs], ring[k], 0)
	}
	for i := 0; i < chords; i++ {
		p.AddCopy(anyVar(), anyVar())
	}
	for i := rng.Intn(refs/8 + 2); i > 0; i-- {
		start := rng.Intn(refs)
		length := 2 + rng.Intn(4)
		for j := 0; j < length; j++ {
			p.AddCopy(ring[(start+j+1)%refs], ring[(start+j)%refs])
		}
		p.AddCopy(ring[start], ring[(start+length)%refs])
	}
	for i := rng.Intn(refs/4 + 2); i > 0; i-- {
		if rng.Intn(2) == 0 {
			p.AddLoad(anyVar(), bases[rng.Intn(refs)], 0)
		} else {
			p.AddStore(bases[rng.Intn(refs)], anyVar(), 0)
		}
	}
	for i := rng.Intn(refs/4 + 2); i > 0; i-- {
		off := uint32(1 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			p.AddLoad(anyVar(), f, off)
		} else {
			p.AddStore(f, anyVar(), off)
		}
	}
	for i := rng.Intn(refs/4 + 2); i > 0; i-- {
		p.AddAddrOf(anyVar(), anyVar())
	}
	return p
}

// checkLockstep fails t unless Analyze and the two-walk reference agree
// on p. It returns Analyze's result and the reference's mixed SCC sizes.
func checkLockstep(t *testing.T, name string, p *constraint.Program) (*Result, []int) {
	t.Helper()
	got := Analyze(p)
	want, mixed := twoWalkAnalyze(p)
	if !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("%s: Pairs = %v, two-walk reference %v", name, got.Pairs, want.Pairs)
	}
	if !slices.Equal(got.PreUnions, want.PreUnions) {
		t.Fatalf("%s: PreUnions = %v, two-walk reference %v", name, got.PreUnions, want.PreUnions)
	}
	if got.SCCs != want.SCCs {
		t.Fatalf("%s: SCCs = %d, two-walk reference %d", name, got.SCCs, want.SCCs)
	}
	return got, mixed
}

// TestLockstepRing: on ring programs whose mixed SCC straddles the 64-ref
// chunk boundaries, Analyze emits exactly the two-walk reference's table —
// including the refs it must leave without a pair.
func TestLockstepRing(t *testing.T) {
	sizes := []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 200}
	var licensed, dropped int
	for _, refs := range sizes {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(refs)))
			// Seed 0 has no chords: the bare ring plus copy cycles,
			// where most refs must be dropped.
			chords := int(seed) * refs / 8
			p := ringProgram(rng, refs, chords)
			name := fmt.Sprintf("refs=%d seed=%d", refs, seed)
			got, mixed := checkLockstep(t, name, p)
			if !slices.Contains(mixed, refs) {
				t.Fatalf("%s: mixed SCC ref counts %v, want one with %d", name, mixed, refs)
			}
			licensed += len(got.Pairs)
			dropped += refs - len(got.Pairs)
		}
	}
	if licensed == 0 || dropped == 0 {
		t.Errorf("licensed %d refs and dropped %d: want both shapes covered", licensed, dropped)
	}
}

// TestLockstepRandomPrograms: the small random programs the oracle draws
// from agree with the reference too.
func TestLockstepRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		p := synth.RandomProgram(rand.New(rand.NewSource(seed)))
		checkLockstep(t, fmt.Sprintf("seed %d", seed), p)
	}
}

// TestPaperScalePairs: on all six paper profiles at full size, Analyze
// agrees with the two-walk reference.
func TestPaperScalePairs(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale programs")
	}
	for _, prof := range synth.PaperProfiles {
		_, mixed := checkLockstep(t, prof.Name, synth.Generate(prof))
		t.Logf("%s: %d mixed SCCs, the largest with %d refs", prof.Name, len(mixed), slices.Max(mixed))
	}
}

// TestPaperScaleOffline: on the output of the HVN → HU → OVS ladder over
// all six paper profiles at full size — the program the fast pipeline
// hands to HCD — Analyze agrees with the two-walk reference.
// (internal/hvn's test of the same name checks the ladder's passes.)
func TestPaperScaleOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale programs")
	}
	for _, prof := range synth.PaperProfiles {
		p := hvn.Reduce(synth.Generate(prof), false).Reduced
		p = hvn.ReduceOVS(hvn.Reduce(p, true).Reduced).Reduced
		got, _ := checkLockstep(t, prof.Name, p)
		t.Logf("%s: %d constraints after OVS, %d pairs, %d SCCs", prof.Name, len(p.Constraints), len(got.Pairs), got.SCCs)
	}
}

var analyzeSink *Result

// BenchmarkAnalyze times the offline pass on ghostscript at paper size,
// whose largest mixed SCC has hundreds of ref members.
func BenchmarkAnalyze(b *testing.B) {
	prof, _ := synth.ProfileByName("ghostscript")
	p := synth.Generate(prof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeSink = Analyze(p)
	}
}
