package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"antgrass/internal/metrics"
	"antgrass/internal/pts"
)

// TestParallelMatchesOracle cross-checks the parallel engine Workers ≥ 2
// selects (the async owner engine) against the map-based reference
// fixpoint on a few hundred random programs, for both parallel-capable
// algorithms, with and without HCD, across owner counts.
func TestParallelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for i := 0; i < trials; i++ {
		p := randomSolverProgram(rng)
		if p.Validate() != nil {
			continue
		}
		want := referenceSolve(p)
		for _, alg := range []Algorithm{Naive, LCD} {
			for _, hcd := range []bool{false, true} {
				for _, wk := range []int{2, 4, 8} {
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk})
					if err != nil {
						t.Fatalf("i=%d alg=%v hcd=%v wk=%d: %v", i, alg, hcd, wk, err)
					}
					for v := uint32(0); v < uint32(p.NumVars); v++ {
						got := r.PointsToSlice(v)
						exp := sortedKeys(want[v])
						if len(got) == 0 && len(exp) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, exp) {
							t.Fatalf("i=%d alg=%v hcd=%v wk=%d: pts(v%d)=%v want %v",
								i, alg, hcd, wk, v, got, exp)
						}
					}
				}
			}
		}
	}
}

// TestParallelMatchesSequentialLarge pits Workers ∈ {2, 4, 8} against the
// sequential solver on cycle-rich inputs big enough for multi-round
// convergence and mid-solve collapsing.
func TestParallelMatchesSequentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		p := biggerRandomProgram(rng, 300, 1200)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{Naive, LCD} {
			for _, hcd := range []bool{false, true} {
				base, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd})
				if err != nil {
					t.Fatal(err)
				}
				for _, wk := range []int{2, 4, 8} {
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk})
					if err != nil {
						t.Fatalf("trial=%d alg=%v hcd=%v wk=%d: %v", trial, alg, hcd, wk, err)
					}
					for v := uint32(0); v < uint32(p.NumVars); v++ {
						got, want := r.PointsToSlice(v), base.PointsToSlice(v)
						if len(got) == 0 && len(want) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial=%d alg=%v hcd=%v wk=%d: pts(v%d) = %d elems, want %d",
								trial, alg, hcd, wk, v, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestSolveContextCancellation covers the cooperative-cancellation
// contract: an already-canceled context aborts before solving, a deadline
// in the past aborts promptly, and the error wraps the context's cause so
// errors.Is works. No configuration may return a partial Result.
func TestSolveContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := biggerRandomProgram(rng, 300, 1200)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, wk := range []int{0, 4} {
		r, err := SolveContext(ctx, p, Options{Algorithm: LCD, Workers: wk})
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wk=%d: want nil result wrapping context.Canceled, got %v, %v", wk, r, err)
		}
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	r, err := SolveContext(dctx, p, Options{Algorithm: LCD, Workers: 4})
	if r != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want nil result wrapping DeadlineExceeded, got %v, %v", r, err)
	}
}

// TestSolveContextCancelMidSolve cancels from a Progress callback, proving
// the parallel engine observes cancellation mid-solve, not only up front.
func TestSolveContextCancelMidSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := biggerRandomProgram(rng, 400, 1600)
	for _, wk := range []int{2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		r, err := SolveContext(ctx, p, Options{
			Algorithm: LCD,
			Workers:   wk,
			Progress: func(ev ProgressEvent) {
				rounds = ev.Round
				cancel()
			},
		})
		cancel()
		if rounds == 0 {
			// The input converged within one round; nothing to check.
			continue
		}
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wk=%d: want nil result wrapping context.Canceled, got %v, %v", wk, r, err)
		}
	}
}

// TestProgressEvents checks the callback fires with sane, monotone fields
// under the parallel engine: one event per token lap, each naming the
// owner count.
func TestProgressEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := biggerRandomProgram(rng, 300, 1200)
	var events []ProgressEvent
	_, err := Solve(p, Options{Algorithm: LCD, WithHCD: true, Workers: 4,
		Progress: func(ev ProgressEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events from a multi-round solve")
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
		if ev.Workers != 4 {
			t.Fatalf("event %d reports %d owners, want 4", i, ev.Workers)
		}
		if ev.WorklistLen < 0 || ev.NodesCollapsed < 0 || ev.Unions < 0 {
			t.Fatalf("negative fields in %+v", ev)
		}
		if i > 0 && (ev.Unions < events[i-1].Unions || ev.NodesCollapsed < events[i-1].NodesCollapsed) {
			t.Fatalf("cumulative counters went backwards: %+v then %+v", events[i-1], ev)
		}
	}
	if last := events[len(events)-1]; last.WorklistLen != 0 {
		t.Fatalf("final round left %d nodes pending", last.WorklistLen)
	}
}

// TestUseParallelGating pins down which worker counts dispatch to the
// parallel (async owner) engine without Options.Async: bitmap-backed sets
// only, and only for Workers ≥ 2. (The Naive/LCD restriction is enforced
// by SolveContext's dispatch switch.)
func TestUseParallelGating(t *testing.T) {
	bitmapF := pts.NewBitmapFactory()
	bddF := pts.NewBDDFactory(16, 0)
	for _, tc := range []struct {
		workers int
		pts     pts.Factory
		want    bool
	}{
		{0, bitmapF, false},
		{1, bitmapF, false},
		{2, bitmapF, true},
		{8, bitmapF, true},
		{8, bddF, false},
	} {
		opts := Options{Workers: tc.workers, Pts: tc.pts}
		if got := useAsync(opts); got != tc.want {
			t.Errorf("useAsync(workers=%d, pts=%s) = %v, want %v",
				tc.workers, tc.pts.Name(), got, tc.want)
		}
	}
}

// TestParallelWorkersStats checks counters survive the per-owner
// accumulate-then-sum path: a parallel run's Propagations and EdgesAdded
// must be positive on a non-trivial input and the solution identical to
// sequential even when counters differ.
func TestParallelWorkersStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := biggerRandomProgram(rng, 300, 1200)
	seq, err := Solve(p, Options{Algorithm: LCD})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Solve(p, Options{Algorithm: LCD, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.Propagations <= 0 || par.Stats.EdgesAdded <= 0 {
		t.Fatalf("parallel counters not accumulated: %+v", par.Stats)
	}
	for v := uint32(0); v < uint32(p.NumVars); v++ {
		a, b := par.PointsToSlice(v), seq.PointsToSlice(v)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pts(v%d) differs between sequential and parallel", v)
		}
	}
}

// TestWorkersRunOwnerEngine pins the dispatch: Workers ≥ 2 without
// Options.Async runs the async owner engine, which reports its mailbox
// traffic and has no merge phase.
func TestWorkersRunOwnerEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := biggerRandomProgram(rng, 300, 1200)
	reg := metrics.New()
	r, err := Solve(p, Options{Algorithm: LCD, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "async.messages" {
			found = true
		}
	}
	if !found {
		t.Fatal("Workers: 2 did not record async.messages; the owner engine did not run")
	}
	if got := reg.PhaseSeconds(PhaseMerge); got != 0 {
		t.Fatalf("%s = %gs, want 0: the owner engine has no merge phase", PhaseMerge, got)
	}
	if r.Stats.Workers != 2 {
		t.Fatalf("Stats.Workers = %d, want 2", r.Stats.Workers)
	}
}
