package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// tally counts the operations a run attempted and the ones that failed:
// an error, a missed deadline, or an answer that did not match its
// reference. Every analysis, update and query goes through it.
type tally struct {
	attempted, failed int64
	reasons           []string
}

// fail records one failed operation; the first few reasons are kept for
// the run's log.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check records one attempted operation that failed when err is non-nil.
func (t *tally) check(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	return true
}

// errDeadline reports an operation that returned after its deadline.
// Front-end and client calls take no context, so their deadline is
// checked when they return.
var errDeadline = errors.New("deadline exceeded")

// withDeadline runs f under a context that expires after d and reports
// errDeadline when f returns after the deadline without an error of its
// own.
func withDeadline(parent context.Context, d time.Duration, f func(ctx context.Context) error) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(parent, d)
	defer cancel()
	start := time.Now()
	err := f(ctx)
	el := time.Since(start)
	if err == nil && (el > d || ctx.Err() != nil) {
		err = fmt.Errorf("%w after %v", errDeadline, el.Round(time.Millisecond))
	}
	return el, err
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// reservoir keeps a uniform random sample of at most cap values from a
// stream too long to store (Vitter's algorithm R), so percentiles of a
// multi-second query phase come from exact, unbucketed durations.
type reservoir struct {
	vals []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{vals: make([]float64, 0, capacity), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(len(r.vals)) {
		r.vals[j] = v
	}
}

// Names of the runtime/metrics samples the benchmark reads.
const (
	rmLiveHeap = "/gc/heap/live:bytes"
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmGCCycles = "/gc/cycles/total:gc-cycles"
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
)

// runtimeStats is a point-in-time reading of the Go runtime counters a
// traced run reports as the runtime layer.
type runtimeStats struct {
	gcCycles     uint64
	gcCPU        float64
	totalCPU     float64
	gcPauseTotal time.Duration
}

func readRuntime() runtimeStats {
	s := []rtmetrics.Sample{{Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	rtmetrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		gcCycles:     s[0].Value.Uint64(),
		gcCPU:        s[1].Value.Float64(),
		totalCPU:     s[2].Value.Float64(),
		gcPauseTotal: time.Duration(ms.PauseTotalNs),
	}
}

// allocBytes returns the heap bytes allocated since the process started.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: rmAllocs}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap returns the heap bytes the last garbage collection found live.
func liveHeap() uint64 {
	s := []rtmetrics.Sample{{Name: rmLiveHeap}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak tracks the peak live heap across a stage: a sampler goroutine
// reads the live-heap figure of each completed collection, and stop adds
// one forced collection while the stage's results are still reachable,
// so the final footprint counts even when no collection ran late in the
// stage.
type heapPeak struct {
	done chan struct{}
	quit chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{done: make(chan struct{}), quit: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB. keep is the stage's
// result, held reachable across the final collection.
func (h *heapPeak) stop(keep any) float64 {
	close(h.quit)
	<-h.done
	runtime.GC()
	h.peak = max(h.peak, liveHeap())
	runtime.KeepAlive(keep)
	return float64(h.peak) / (1 << 20)
}
