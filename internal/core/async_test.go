package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"antgrass/internal/pts"
)

// TestAsyncMatchesOracle cross-checks Options.Async at Workers ≤ 1 — the
// single-owner configuration, which still runs the full mailbox/token
// machinery — against the map-based reference fixpoint on a few hundred
// random programs, for both async-capable algorithms, with and without
// HCD. Larger owner counts are TestParallelMatchesOracle's: Workers ≥ 2
// selects the same engine without Async.
func TestAsyncMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for i := 0; i < trials; i++ {
		p := randomSolverProgram(rng)
		if p.Validate() != nil {
			continue
		}
		want := referenceSolve(p)
		for _, alg := range []Algorithm{Naive, LCD} {
			for _, hcd := range []bool{false, true} {
				for _, wk := range []int{0, 1} {
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk, Async: true})
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

// TestAsyncMatchesSequentialLarge pits the single-owner async engine
// against the sequential solver on cycle-rich inputs big enough for
// sustained message traffic and mid-solve pauses (multi-owner runs are
// TestParallelMatchesSequentialLarge's).
func TestAsyncMatchesSequentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
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
				for _, wk := range []int{0, 1} {
					r, err := Solve(p, Options{Algorithm: alg, WithHCD: hcd, Workers: wk, Async: true})
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

// TestAsyncCancellation covers the cooperative-cancellation contract for
// the async engine: an already-canceled context aborts before solving, and
// a cancel fired from the lap-boundary Progress callback aborts a running
// ring — owners unwind through stopCh, parked or mid-step — without a
// partial Result.
func TestAsyncCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := biggerRandomProgram(rng, 300, 1200)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := SolveContext(ctx, p, Options{Algorithm: LCD, Workers: 4, Async: true})
	if r != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want nil result wrapping context.Canceled, got %v, %v", r, err)
	}

	for _, wk := range []int{1, 4} {
		mctx, mcancel := context.WithCancel(context.Background())
		laps := 0
		r, err := SolveContext(mctx, p, Options{
			Algorithm: LCD,
			Workers:   wk,
			Async:     true,
			Progress: func(ev ProgressEvent) {
				laps = ev.Round
				mcancel()
			},
		})
		mcancel()
		if laps == 0 {
			continue // converged before the first lap; nothing to check
		}
		if r != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("wk=%d: want nil result wrapping context.Canceled, got %v, %v", wk, r, err)
		}
	}
}

// TestAsyncUseGating pins down which configurations dispatch to the async
// engine: Options.Async with bitmap-backed sets, any worker count. (The
// Naive/LCD restriction is enforced by SolveContext's dispatch switch.)
func TestAsyncUseGating(t *testing.T) {
	bitmapF := pts.NewBitmapFactory()
	bddF := pts.NewBDDFactory(16, 0)
	for _, tc := range []struct {
		async   bool
		workers int
		pts     pts.Factory
		want    bool
	}{
		{false, 0, bitmapF, false},
		{false, 1, bitmapF, false},
		{true, 0, bitmapF, true},
		{true, 1, bitmapF, true},
		{true, 8, bitmapF, true},
		{true, 8, bddF, false},
	} {
		opts := Options{Async: tc.async, Workers: tc.workers, Pts: tc.pts}
		if got := useAsync(opts); got != tc.want {
			t.Errorf("useAsync(async=%v, workers=%d, pts=%s) = %v, want %v",
				tc.async, tc.workers, tc.pts.Name(), got, tc.want)
		}
	}
}

// TestAsyncStats checks the engine's accounting reaches the Result: the
// owner-private Propagations/EdgesAdded counters must be folded in, Rounds
// must report token laps, Workers must name the owner count that ran (one
// when Async is set with Workers 0), and the solution must match the
// sequential solver even though the counters are schedule-dependent.
func TestAsyncStats(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := biggerRandomProgram(rng, 300, 1200)
	seq, err := Solve(p, Options{Algorithm: LCD})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, owners int }{{0, 1}, {4, 4}} {
		async, err := Solve(p, Options{Algorithm: LCD, Workers: tc.workers, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if async.Stats.Propagations <= 0 || async.Stats.EdgesAdded <= 0 {
			t.Fatalf("workers=%d: async counters not accumulated: %+v", tc.workers, async.Stats)
		}
		if async.Stats.Rounds <= 0 {
			t.Fatalf("workers=%d: async run reported no token laps: %+v", tc.workers, async.Stats)
		}
		if async.Stats.Workers != tc.owners {
			t.Fatalf("workers=%d: Stats.Workers = %d, want %d owners", tc.workers, async.Stats.Workers, tc.owners)
		}
		for v := uint32(0); v < uint32(p.NumVars); v++ {
			a, b := async.PointsToSlice(v), seq.PointsToSlice(v)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d: pts(v%d) differs between sequential and async", tc.workers, v)
			}
		}
	}
}
