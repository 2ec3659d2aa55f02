package worklist

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestFrontierPushDrain(t *testing.T) {
	f := NewFrontier(10)
	if !f.Empty() || f.Len() != 0 {
		t.Fatal("new frontier not empty")
	}
	for _, x := range []uint32{7, 3, 3, 9, 0, 7} {
		f.Push(x)
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d after deduped pushes, want 4", f.Len())
	}
	got := f.Drain()
	if !reflect.DeepEqual(got, []uint32{0, 3, 7, 9}) {
		t.Fatalf("Drain = %v, want ascending dedup", got)
	}
	if !f.Empty() {
		t.Fatal("frontier not empty after drain")
	}
	// Refill after drain: membership must have been reset.
	f.Push(3)
	if got := f.Drain(); !reflect.DeepEqual(got, []uint32{3}) {
		t.Fatalf("refill Drain = %v", got)
	}
}

func TestFrontierDrainOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		f := NewFrontier(n)
		seen := map[uint32]bool{}
		for i := 0; i < rng.Intn(200); i++ {
			x := uint32(rng.Intn(n))
			f.Push(x)
			seen[x] = true
		}
		got := f.Drain()
		if len(got) != len(seen) {
			t.Fatalf("drained %d nodes, want %d", len(got), len(seen))
		}
		for i, x := range got {
			if !seen[x] {
				t.Fatalf("drained unexpected node %d", x)
			}
			if i > 0 && got[i-1] >= x {
				t.Fatalf("drain not strictly ascending: %v", got)
			}
		}
	}
}

func TestShards(t *testing.T) {
	nodes := []uint32{1, 2, 3, 4, 5, 6, 7}
	for _, tc := range []struct {
		k         int
		wantCount int
	}{
		{1, 1},
		{2, 2},
		{3, 3},
		{7, 7},
		{100, 7}, // never more shards than nodes
		{0, 1},   // k < 1 clamps to one shard
	} {
		got := Shards(nodes, tc.k)
		if len(got) != tc.wantCount {
			t.Fatalf("Shards(7 nodes, k=%d) has %d shards, want %d", tc.k, len(got), tc.wantCount)
		}
		var flat []uint32
		for i, sh := range got {
			if len(sh) == 0 {
				t.Fatalf("k=%d shard %d empty", tc.k, i)
			}
			flat = append(flat, sh...)
		}
		if !reflect.DeepEqual(flat, nodes) {
			t.Fatalf("k=%d shards reordered nodes: %v", tc.k, flat)
		}
	}
	if got := Shards(nil, 4); got != nil {
		t.Fatalf("Shards(nil) = %v, want nil", got)
	}
}

// TestFrontierDrainReuse pins the double-buffer contract: the slice a
// Drain returns stays valid until the NEXT Drain, and steady-state
// rounds ping-pong between exactly two backing arrays instead of
// growing fresh ones.
func TestFrontierDrainReuse(t *testing.T) {
	f := NewFrontier(64)
	for _, x := range []uint32{5, 1, 9} {
		f.Push(x)
	}
	first := f.Drain()
	if !reflect.DeepEqual(first, []uint32{1, 5, 9}) {
		t.Fatalf("first Drain = %v", first)
	}
	// Pushing the next round must not clobber the drained slice.
	for _, x := range []uint32{2, 8} {
		f.Push(x)
	}
	if !reflect.DeepEqual(first, []uint32{1, 5, 9}) {
		t.Fatalf("pushes corrupted previous drain: %v", first)
	}
	second := f.Drain()
	if !reflect.DeepEqual(second, []uint32{2, 8}) {
		t.Fatalf("second Drain = %v", second)
	}
	// Third round: with both rounds at most the warmed capacity, the
	// buffer returned now must reuse the first drain's backing array.
	f.Push(4)
	third := f.Drain()
	if !reflect.DeepEqual(third, []uint32{4}) {
		t.Fatalf("third Drain = %v", third)
	}
	if &third[0] != &first[0] {
		t.Fatal("third Drain did not recycle the first drain's buffer")
	}
}

// TestFrontierSteadyStateAllocs is the hard form of the reuse property:
// after warmup, neither a push/drain round nor a push/pop round (the
// async owners' dirty-queue pattern) allocates.
func TestFrontierSteadyStateAllocs(t *testing.T) {
	const n = 512
	f := NewFrontier(n)
	drainRound := func() {
		for x := uint32(0); x < n; x++ {
			f.Push(n - 1 - x)
		}
		if got := f.Drain(); len(got) != n {
			t.Fatalf("drained %d, want %d", len(got), n)
		}
	}
	popRound := func() {
		for x := uint32(0); x < n; x++ {
			f.Push(x)
		}
		for popped := 0; ; popped++ {
			if _, ok := f.Pop(); !ok {
				if popped != n {
					t.Fatalf("popped %d, want %d", popped, n)
				}
				return
			}
		}
	}
	drainRound() // warm both ping-pong buffers
	drainRound()
	popRound()
	if avg := testing.AllocsPerRun(20, drainRound); avg != 0 {
		t.Fatalf("steady-state drain round allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, popRound); avg != 0 {
		t.Fatalf("steady-state pop round allocates %.1f times, want 0", avg)
	}
}

// BenchmarkFrontierDrainReuse measures a steady-state push/drain round.
// The headline number is allocs/op: it must be 0 — before the
// double-buffered Drain each round grew a fresh nodes slice.
func BenchmarkFrontierDrainReuse(b *testing.B) {
	const n = 4096
	f := NewFrontier(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := uint32(0); x < n; x++ {
			f.Push(n - 1 - x)
		}
		f.Drain()
	}
}
