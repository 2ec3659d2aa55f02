package worklist

import (
	"reflect"
	"testing"
)

func TestFrontierPushPop(t *testing.T) {
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
	var got []uint32
	for {
		x, ok := f.Pop()
		if !ok {
			break
		}
		got = append(got, x)
	}
	if !reflect.DeepEqual(got, []uint32{7, 3, 9, 0}) {
		t.Fatalf("Pop order = %v, want first-push order", got)
	}
	if !f.Empty() {
		t.Fatal("frontier not empty after popping everything")
	}
	// Refill after popping: membership must have been reset.
	f.Push(3)
	if x, ok := f.Pop(); !ok || x != 3 {
		t.Fatalf("refill Pop = %d, %v", x, ok)
	}
}

// TestFrontierSteadyStateAllocs pins buffer reuse: after warmup, a
// push/pop round (the async owners' dirty-queue pattern) does not
// allocate.
func TestFrontierSteadyStateAllocs(t *testing.T) {
	const n = 512
	f := NewFrontier(n)
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
	popRound() // warm the buffer
	if avg := testing.AllocsPerRun(20, popRound); avg != 0 {
		t.Fatalf("steady-state pop round allocates %.1f times, want 0", avg)
	}
}
