package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"antgrass"
)

// query is one snapshot read: PointsTo(a), or Alias(a, b).
type query struct {
	alias bool
	a, b  antgrass.VarID
}

// makeQueries draws n seeded queries, half PointsTo and half Alias, over
// variables chosen uniformly from the first numVars.
func makeQueries(seed int64, numVars, n int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x9e37))
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{alias: rng.Intn(2) == 0, a: antgrass.VarID(rng.Intn(numVars)), b: antgrass.VarID(rng.Intn(numVars))}
	}
	return qs
}

// answered is a query kept with its answer for the check after the phase.
type answered struct {
	q     query
	set   []antgrass.VarID
	alias bool
}

// queryStats summarizes one closed-loop query phase.
type queryStats struct {
	n              int64
	elapsed        time.Duration
	lat            *reservoir // per-query latency, ns
	ptsNS, aliasNS float64    // total ns per kind
	ptsN, aliasN   int64
	answerLen      int64     // summed PointsTo answer sizes
	windowQPS      []float64 // read rate of each qpsWindow
	late           int64     // queries slower than queryDeadline
	answers        []answered
}

const (
	// queryDeadline bounds one snapshot read; a slower read counts as
	// failed. Reads cannot be canceled, so it is checked on return.
	queryDeadline = 100 * time.Millisecond
	// Every answerEvery-th query keeps its answer for checking, up to
	// maxAnswers of them.
	answerEvery = 997
	maxAnswers  = 4096
	// latencySamples caps the latency reservoir.
	latencySamples = 1 << 20
	// qpsWindow is the span the read rate is measured over; the reported
	// rate is the median window's, so a burst of time stolen from the
	// machine moves it less than a whole-phase average.
	qpsWindow = 100 * time.Millisecond
)

// queryLoop is a closed-loop reader: it issues qs in order, cycling,
// against latest() — a fresh load of the newest snapshot for each query —
// until end passes or stop is set, timing each query on its own.
func queryLoop(latest func() *antgrass.Snapshot, qs []query, end time.Time, stop *atomic.Bool, seed int64) *queryStats {
	st := &queryStats{lat: newReservoir(latencySamples, seed)}
	start := time.Now()
	window, windowN := start, 0
	for i := 0; ; i++ {
		q := qs[i%len(qs)]
		t0 := time.Now()
		sn := latest()
		var (
			set []antgrass.VarID
			al  bool
		)
		if q.alias {
			al = sn.Alias(q.a, q.b)
		} else {
			set = sn.PointsTo(q.a)
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		st.lat.add(float64(d))
		if q.alias {
			st.aliasNS += float64(d)
			st.aliasN++
		} else {
			st.ptsNS += float64(d)
			st.ptsN++
			st.answerLen += int64(len(set))
		}
		if d > queryDeadline {
			st.late++
		}
		if i%answerEvery == 0 && len(st.answers) < maxAnswers {
			st.answers = append(st.answers, answered{q: q, set: set, alias: al})
		}
		st.n++
		if windowN++; t1.Sub(window) >= qpsWindow {
			st.windowQPS = append(st.windowQPS, float64(windowN)/t1.Sub(window).Seconds())
			window, windowN = t1, 0
		}
		if (!end.IsZero() && t1.After(end)) || (stop != nil && i%64 == 0 && stop.Load()) {
			st.elapsed = t1.Sub(start)
			return st
		}
	}
}

// sortedSubset reports whether sorted a ⊆ sorted b.
func sortedSubset(a, b []antgrass.VarID) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// sortedIntersect reports whether sorted a and b share an element.
func sortedIntersect(a, b []antgrass.VarID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// answerVars returns the variables of the queries queryLoop keeps answers
// for, so a caller can capture what it will check them against.
func answerVars(qs []query) []antgrass.VarID {
	var vs []antgrass.VarID
	for k := 0; k < maxAnswers; k++ {
		q := qs[(k*answerEvery)%len(qs)]
		vs = append(vs, q.a, q.b)
	}
	return vs
}

// checkAnswers accounts a query phase in t: every query is attempted;
// one fails when it was late or when its kept answer is wrong. Since the
// edits only add constraints, an answer read from any epoch must lie
// between the first epoch's solution (lo) and the last one's (hi); both
// have been checked against their references. A batch workload reads one
// snapshot, so it passes the same solution as lo and hi.
func checkAnswers(t *tally, st *queryStats, lo, hi func(antgrass.VarID) []antgrass.VarID) {
	t.attempted += st.n
	if st.late > 0 {
		t.fail("%d queries exceeded %v", st.late, queryDeadline)
		t.failed += st.late - 1
	}
	for _, a := range st.answers {
		var err error
		if a.q.alias {
			switch {
			case a.alias && !sortedIntersect(hi(a.q.a), hi(a.q.b)):
				err = fmt.Errorf("Alias(%d, %d) = true, but the sets never intersect", a.q.a, a.q.b)
			case !a.alias && sortedIntersect(lo(a.q.a), lo(a.q.b)):
				err = fmt.Errorf("Alias(%d, %d) = false, but the sets already intersect", a.q.a, a.q.b)
			}
		} else if !sortedSubset(lo(a.q.a), a.set) || !sortedSubset(a.set, hi(a.q.a)) {
			err = fmt.Errorf("PointsTo(%d) answer of %d elements is outside the checked solutions", a.q.a, len(a.set))
		}
		if err != nil {
			t.fail("query: %v", err)
		}
	}
}
