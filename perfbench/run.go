package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"antgrass"
	"antgrass/internal/core"
	"antgrass/internal/metrics"
)

const (
	// setupReps is how many times a run builds its inputs; setup_s is
	// the median.
	setupReps = 3
	// analysisShare is the part of a batch run's budget spent repeating
	// the analysis; the rest is the query phase.
	analysisShare = 0.8
	// minAnalyses is the fewest analyses a batch run medians over, even
	// past its budget: the first analysis of a process often peaks far
	// higher in live heap (ghostscript on a 2-vCPU VM: 44–91 MB against
	// 34–38 MB for later ones), and a median of three discards it.
	minAnalyses = 3
	// sessionShare is the part of serve-edit's budget spent opening more
	// sessions for analysis_s; the rest is the edit phase.
	sessionShare = 0.3
	// updateRate is serve-edit's open-loop edit rate, per second, about
	// half of what one Session absorbs on a 2-vCPU VM. The run applies
	// updateRate edits per second of its edit phase.
	updateRate = 5
	// Deadlines of one analysis and one update; a miss counts as failed.
	analysisDeadline = 60 * time.Second
	updateDeadline   = 10 * time.Second
	// numQueries is the length of the seeded query stream, which the
	// reader cycles through.
	numQueries = 1 << 16
)

// config is one invocation of the benchmark.
type config struct {
	w       *workload
	seed    int64
	seconds time.Duration
	trace   bool
	refs    map[string]reference
	log     io.Writer
}

// outcome is what a run measured and checked.
type outcome struct {
	t       tally
	metrics map[string]float64
	tr      *tracer
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, "perfbench %s: "+format+"\n", append([]any{c.w.name}, args...)...)
}

// run executes the workload once.
func (c *config) run(ctx context.Context) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	if c.trace {
		o.tr = newTracer(fmt.Sprintf("%s/seed%d/%d", c.w.name, c.seed, time.Now().UnixNano()))
	}
	if c.w.serve {
		return o, c.runServe(ctx, o)
	}
	return o, c.runBatch(ctx, o)
}

// tracerFor returns the run's tracer for the last set-up repetition
// only, so a traced run's spans describe one set-up.
func (o *outcome) tracerFor(rep int) *tracer {
	if rep == setupReps-1 {
		return o.tr
	}
	return nil
}

// batchInput is a batch workload's input: a synthetic program, or the
// compiled standard-library unit.
type batchInput struct {
	prog *antgrass.Program
	unit *antgrass.Unit
}

// batchAnswer is one untraced batch analysis: the result and, for
// go-std, the unit it came from and its call graph.
type batchAnswer struct {
	res   *antgrass.Result
	unit  *antgrass.Unit
	edges []antgrass.CallEdge
}

// analyze is one untraced analysis from input to answer: Solve for the
// synthetic workloads; compile, Solve and CallGraph for go-std.
func (c *config) analyze(ctx context.Context, in batchInput) (batchAnswer, error) {
	var a batchAnswer
	prog := in.prog
	if c.w.goStd {
		u, err := compileStd(nil)
		if err != nil {
			return a, err
		}
		a.unit, prog = u, u.Prog
	}
	res, err := antgrass.Solve(ctx, prog, c.w.opts)
	if err != nil {
		return a, err
	}
	a.res = res
	if c.w.goStd {
		a.edges = antgrass.CallGraph(a.unit, res)
	}
	return a, nil
}

// checkAnswer compares an analysis's answer with the reference, outside
// any timed region.
func (c *config) checkAnswer(a batchAnswer, ref reference) error {
	if d := digestSolution(snapshotSolution{a.res.Snapshot()}); d != ref.Solution {
		return fmt.Errorf("solution digest %.12s, want %.12s", d, ref.Solution)
	}
	if !c.w.goStd {
		return nil
	}
	if d := digestCallGraph(a.edges); d != ref.CallGraph {
		return fmt.Errorf("call graph digest %.12s, want %.12s", d, ref.CallGraph)
	}
	if d := digestModRef(antgrass.ComputeModRef(a.unit, a.res, false)); d != ref.ModRef {
		return fmt.Errorf("mod/ref digest %.12s, want %.12s", d, ref.ModRef)
	}
	return nil
}

// attempt is one untraced analysis under deadline, with its peak live
// heap in MiB; t counts it, and counts it failed on an error, a missed
// deadline or an answer that differs from ref.
func (c *config) attempt(ctx context.Context, t *tally, in batchInput, ref reference, deadline time.Duration) (batchAnswer, time.Duration, float64, bool) {
	hp := startHeapPeak()
	var a batchAnswer
	el, err := withDeadline(ctx, deadline, func(ctx context.Context) error {
		var err error
		a, err = c.analyze(ctx, in)
		return err
	})
	peak := hp.stop(a)
	if err == nil {
		err = c.checkAnswer(a, ref)
	}
	return a, el, peak, t.check("analysis", err)
}

func (c *config) runBatch(ctx context.Context, o *outcome) error {
	var (
		in    batchInput
		setup []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = buildInput(o.tracerFor(rep), c.w, c.seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	ref, err := c.reference(ctx, in)
	if err != nil {
		return err
	}
	c.logf("set-up %.3fs (median of %d); reference from %v", median(setup), setupReps, ref.Families)

	var (
		last         batchAnswer
		times, peaks []float64
		rt0          = readRuntime()
		phaseStart   = time.Now()
		analysisEnd  = phaseStart.Add(time.Duration(analysisShare * float64(c.seconds)))
	)
	untraced := func() {
		last = batchAnswer{} // the previous answer must not count in this one's heap
		a, el, peak, ok := c.attempt(ctx, &o.t, in, ref, analysisDeadline)
		peaks = append(peaks, peak)
		if ok {
			times = append(times, el.Seconds())
			last = a
		}
	}
	if !c.trace {
		for attempts := 1; ctx.Err() == nil; attempts++ {
			untraced()
			if attempts >= minAnalyses && time.Now().After(analysisEnd) {
				break
			}
		}
	} else {
		// The second, warm, untraced analysis is the one the traced
		// analysis is compared with.
		untraced()
		untraced()
		c.tracedBatch(ctx, o, in, last, ref, times)
	}
	if last.res == nil {
		return nil
	}
	snap := last.res.Snapshot()
	qs := makeQueries(c.seed, snap.NumVars(), numQueries)
	st := queryLoop(func() *antgrass.Snapshot { return snap }, qs, time.Now().Add(c.seconds-time.Duration(analysisShare*float64(c.seconds))), nil, c.seed)
	checkAnswers(&o.t, st, snap.PointsTo, snap.PointsTo)

	o.metrics["setup_s"] = median(setup)
	o.metrics["analysis_s"] = median(times)
	o.metrics["peak_heap_mb"] = median(peaks)
	c.queryMetrics(o, st)
	if c.trace {
		c.runtimeMetrics(o, rt0, readRuntime())
	}
	c.logf("%d analyses in %.1fs, median %.3fs", len(times), time.Since(phaseStart).Seconds(), median(times))
	return nil
}

// tracedBatch runs the analysis once more as separate calls into each
// layer, with spans and the library's metrics registry, and reports the
// per-layer metrics and the tracing overhead against the untraced
// analysis that preceded it. The clients run on the untraced answer: their
// cost depends only on the solution, which both analyses share.
func (c *config) tracedBatch(ctx context.Context, o *outcome, in batchInput, untraced batchAnswer, ref reference, times []float64) {
	var (
		reg  = metrics.New()
		oc   offlineCounts
		cres *core.Result
		n    int
	)
	_, err := withDeadline(ctx, analysisDeadline, func(ctx context.Context) error {
		var err error
		o.tr.do("analysis", func() {
			prog := in.prog
			if c.w.goStd {
				var u *antgrass.Unit
				if u, err = compileStd(o.tr); err != nil {
					return
				}
				prog = u.Prog
				o.metrics["gogen.constraints"] = float64(len(prog.Constraints))
			}
			n = prog.NumVars
			if cres, err = pipeline(ctx, o.tr, prog, c.w.opts, reg, &oc); err != nil || !c.w.goStd || untraced.res == nil {
				return
			}
			o.tr.do("clients.callgraph", func() {
				o.metrics["clients.call_edges"] = float64(len(antgrass.CallGraph(untraced.unit, untraced.res)))
			})
		})
		return err
	})
	if err == nil {
		if d := digestSolution(coreSolution{cres, n}); d != ref.Solution {
			err = fmt.Errorf("traced solution digest %.12s, want %.12s", d, ref.Solution)
		}
	}
	o.t.check("traced analysis", err)
	if c.w.goStd && untraced.res != nil {
		var mr *antgrass.ModRefInfo
		o.tr.do("clients.modref", func() { mr = antgrass.ComputeModRef(untraced.unit, untraced.res, true) })
		err := error(nil)
		if d := digestModRef(mr); ref.ModRefTransitive != "" && d != ref.ModRefTransitive {
			err = fmt.Errorf("transitive mod/ref digest %.12s, want %.12s", d, ref.ModRefTransitive)
		}
		o.t.check("transitive mod/ref", err)
	}
	o.metrics["hvn.after"] = float64(oc.hvnAfter)
	o.metrics["ovs.after"] = float64(oc.ovsAfter)
	o.metrics["hcd.pairs"] = float64(oc.hcdPairs)
	o.metrics["core.alloc_mb"] = float64(oc.coreAllocBytes) / (1 << 20)
	c.registryMetrics(o, reg)
	if root := o.tr.last("analysis"); root >= 0 && len(times) > 0 {
		o.metrics["trace.overhead_s"] = o.tr.spans[root].seconds() - times[len(times)-1]
	}
}

// openSession is one serve-edit analysis: NewSession's first solve of p,
// under its deadline, checked against ref. t counts it.
func (c *config) openSession(ctx context.Context, t *tally, tr *tracer, p *antgrass.Program, opts antgrass.Options, ref reference) (*antgrass.Session, time.Duration, bool) {
	var s *antgrass.Session
	el, err := withDeadline(ctx, analysisDeadline, func(ctx context.Context) error {
		var err error
		tr.do("analysis", func() {
			tr.do("session.new", func() { s, err = antgrass.NewSession(ctx, p, opts) })
		})
		return err
	})
	if err == nil {
		if d := digestSolution(snapshotSolution{s.Snapshot()}); d != ref.Solution {
			err = fmt.Errorf("first epoch digest %.12s, want %.12s", d, ref.Solution)
		}
	}
	return s, el, t.check("session analysis", err)
}

func (c *config) runServe(ctx context.Context, o *outcome) error {
	var (
		sess        *antgrass.Session
		base        *antgrass.Program
		setup, news []float64
		traced      float64
		reg         = metrics.New()
	)
	ref, err := c.reference(ctx, batchInput{})
	if err != nil {
		return err
	}
	for rep := 0; rep < setupReps; rep++ {
		tr := o.tracerFor(rep)
		runtime.GC()
		start := time.Now()
		p, err := synthInput(tr, c.w.profile, c.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		opts := c.w.opts
		if tr != nil {
			opts.Metrics = reg
		}
		before := allocBytes()
		s, el, ok := c.openSession(ctx, &o.t, tr, p, opts, ref)
		setup = append(setup, time.Since(start).Seconds())
		if tr != nil {
			o.metrics["core.alloc_mb"] = float64(allocBytes()-before) / (1 << 20)
			traced = el.Seconds()
		} else if ok {
			news = append(news, el.Seconds())
		}
		if ok {
			if sess != nil {
				sess.Close()
			}
			sess, base = s, p
		}
	}
	if sess == nil {
		return nil
	}
	defer sess.Close()

	// More sessions over the same input, for a steadier analysis_s.
	analysisEnd := time.Now().Add(time.Duration(sessionShare * float64(c.seconds)))
	for ctx.Err() == nil && time.Now().Before(analysisEnd) {
		runtime.GC()
		if s, el, ok := c.openSession(ctx, &o.t, nil, base, c.w.opts, ref); ok {
			news = append(news, el.Seconds())
			s.Close()
		}
	}
	if c.trace {
		c.registryMetrics(o, reg)
		o.metrics["trace.overhead_s"] = traced - median(news)
	}

	editPhase := c.seconds - time.Duration(sessionShare*float64(c.seconds))
	deltas := makeDeltas(c.seed, base.NumVars, int(updateRate*editPhase.Seconds()))
	final, _, err := makeReference(ctx, applyDeltas(base, deltas), c.w.fams)
	if err != nil {
		return err
	}
	c.logf("set-up %.3fs (median of %d); %d sessions, median %.3fs; final-epoch reference from %v",
		median(setup), setupReps, len(news), median(news), final.Families)

	// The first epoch's answers to the checked queries, captured now so
	// the edit phase's heap does not hold the whole first epoch.
	qs := makeQueries(c.seed, base.NumVars, numQueries)
	firstSets := map[antgrass.VarID][]antgrass.VarID{}
	for _, v := range answerVars(qs) {
		firstSets[v] = sess.Snapshot().PointsTo(v)
	}
	var (
		stop              atomic.Bool
		st                *queryStats
		wg                sync.WaitGroup
		lat, lag, service []float64
		rt0               = readRuntime()
		hp                = startHeapPeak()
		interval          = time.Second / updateRate
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		st = queryLoop(sess.Snapshot, qs, time.Time{}, &stop, c.seed)
	}()
	start := time.Now()
	for i, d := range deltas {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		began := time.Now()
		_, err := withDeadline(ctx, updateDeadline, func(ctx context.Context) error {
			var err error
			o.tr.do("session.update", func() { _, err = sess.Update(ctx, d) })
			return err
		})
		done := time.Now()
		if o.t.check("update", err) {
			lat = append(lat, done.Sub(due).Seconds())
			lag = append(lag, began.Sub(due).Seconds())
			service = append(service, done.Sub(began).Seconds())
		}
	}
	stop.Store(true)
	wg.Wait()
	peak := hp.stop(sess)
	rt1 := readRuntime()

	last := sess.Snapshot()
	err = nil
	if d := digestSolution(snapshotSolution{last}); d != final.Solution {
		err = fmt.Errorf("final epoch digest %.12s, want %.12s", d, final.Solution)
	} else if pd := digestProgram(sess.Program()); pd != final.Program {
		err = fmt.Errorf("final program digest %.12s, want %.12s", pd, final.Program)
	} else {
		o.tr.do("verify.solution", func() { err = antgrass.VerifySolution(sess.Program(), last.Result()) })
	}
	o.t.check("final epoch", err)
	checkAnswers(&o.t, st, func(v antgrass.VarID) []antgrass.VarID { return firstSets[v] }, last.PointsTo)

	o.metrics["setup_s"] = median(setup)
	o.metrics["analysis_s"] = median(news)
	o.metrics["peak_heap_mb"] = peak
	c.queryMetrics(o, st)
	if c.trace {
		resumed, replayed := sess.UpdateStats()
		o.metrics["session.update_s"] = median(service)
		o.metrics["session.update_p50_ms"] = quantile(lat, 0.5) * 1e3
		o.metrics["session.update_p90_ms"] = quantile(lat, 0.9) * 1e3
		o.metrics["session.update_lag_ms"] = median(lag) * 1e3
		if resumed+replayed > 0 {
			o.metrics["session.resume_ratio"] = float64(resumed) / float64(resumed+replayed)
		}
		c.runtimeMetrics(o, rt0, rt1)
	}
	c.logf("%d updates: p50 %.1fms p90 %.1fms; %d queries", len(lat), quantile(lat, 0.5)*1e3, quantile(lat, 0.9)*1e3, st.n)
	return nil
}

// reference returns the stored reference for the workload's input, or,
// when refs.json holds none for it (another toolchain for go-std, or a
// changed generator), makes one now, before any timing.
func (c *config) reference(ctx context.Context, in batchInput) (reference, error) {
	if in.prog == nil {
		var err error
		if in, err = buildInput(nil, c.w, c.seed); err != nil {
			return reference{}, err
		}
	}
	pd := digestProgram(in.prog)
	if ref, ok := c.refs[c.w.name]; ok && ref.Program == pd && (!c.w.goStd || ref.Go == runtime.Version()) {
		return ref, nil
	}
	c.logf("no stored reference for this input; generating one")
	return generate(ctx, c.w, in, c.trace)
}

// generate makes a workload's reference: the agreed solution digest and,
// for go-std, the client digests computed from the agreed solution
// (the transitive mod/ref only when withTransitive is set, as it takes
// tens of seconds).
func generate(ctx context.Context, w *workload, in batchInput, withTransitive bool) (reference, error) {
	ref, res, err := makeReference(ctx, in.prog, w.fams)
	if err != nil || !w.goStd {
		return ref, err
	}
	ref.Go = runtime.Version()
	ref.CallGraph = digestCallGraph(antgrass.CallGraph(in.unit, res))
	ref.ModRef = digestModRef(antgrass.ComputeModRef(in.unit, res, false))
	if withTransitive {
		ref.ModRefTransitive = digestModRef(antgrass.ComputeModRef(in.unit, res, true))
	}
	return ref, nil
}

// queryMetrics reports a query phase: the end-to-end latency percentiles
// and rate, and the per-layer snapshot read costs.
func (c *config) queryMetrics(o *outcome, st *queryStats) {
	o.metrics["query_p50_us"] = quantile(st.lat.vals, 0.5) / 1e3
	o.metrics["query_p99_us"] = quantile(st.lat.vals, 0.99) / 1e3
	o.metrics["query_qps"] = median(st.windowQPS)
	if st.ptsN > 0 {
		o.metrics["snapshot.pointsto_ns"] = st.ptsNS / float64(st.ptsN)
		o.metrics["snapshot.answer_len_mean"] = float64(st.answerLen) / float64(st.ptsN)
	}
	if st.aliasN > 0 {
		o.metrics["snapshot.alias_ns"] = st.aliasNS / float64(st.aliasN)
	}
}

// registryMetrics copies the library's own counters and phase times for
// the traced solve into the per-layer metrics.
func (c *config) registryMetrics(o *outcome, reg *metrics.Registry) {
	cnt := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	ph := reg.PhaseSeconds
	m := o.metrics
	m["core.build_s"] = ph(metrics.PhaseBuild)
	m["core.propagate_s"] = ph(core.PhasePropagate) + ph(core.PhaseCompute) + ph(core.PhaseMerge)
	m["core.cycledetect_s"] = ph(core.PhaseCycleDetect)
	for _, k := range []string{"propagations", "edges_added", "nodes_searched", "cycle_checks", "nodes_collapsed", "mem_bytes"} {
		m["core."+k] = cnt(k)
	}
	if checks := cnt("cycle_checks"); checks > 0 {
		m["core.collapses_per_check"] = cnt("nodes_collapsed") / checks
	}
	m["par.compute_s"] = ph(core.PhaseCompute)
	m["par.merge_s"] = ph(core.PhaseMerge)
	if par := ph(core.PhaseCompute) + ph(core.PhaseMerge); par > 0 {
		m["par.merge_share"] = ph(core.PhaseMerge) / par
	}
	m["par.rounds"] = cnt("rounds")
	m["par.steals"] = cnt("steals")
	m["memo.hits"], m["memo.misses"], m["memo.bytes"] = cnt("memo_hits"), cnt("memo_misses"), cnt("memo_bytes")
	if probes := cnt("memo_hits") + cnt("memo_misses"); probes > 0 {
		m["memo.hit_rate"] = cnt("memo_hits") / probes
	}
	var gets, recycled float64
	for _, pool := range []string{"", "worker_", "owner_"} {
		gets += cnt(pool + "pool_element_gets")
		recycled += cnt(pool + "pool_element_recycled")
	}
	m["pts.pool_element_gets"] = gets
	if gets > 0 {
		m["pts.recycle_rate"] = recycled / gets
	}
	m["pts.cow_shares"], m["pts.cow_clones"] = cnt("cow_shares"), cnt("cow_clones")
}

// runtimeMetrics reports the Go runtime's garbage-collection cost between
// two readings taken around the run's measured stages.
func (c *config) runtimeMetrics(o *outcome, a, b runtimeStats) {
	o.metrics["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	o.metrics["runtime.gc_pause_ms"] = (b.gcPauseTotal - a.gcPauseTotal).Seconds() * 1e3
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		o.metrics["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}
