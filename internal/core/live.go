package core

import (
	"context"
	"fmt"
	"time"

	"antgrass/internal/constraint"
	"antgrass/internal/hcd"
	"antgrass/internal/metrics"
	"antgrass/internal/pts"
)

// Live is a resident, resumable solver: the state a long-lived Session
// keeps warm between constraint deltas. Where Solve tears its graph down
// after one fixpoint, Live keeps the constraint graph, the union-find, the
// points-to solution and the LCD trigger memory alive, so a *monotone*
// delta (added variables and constraints) only re-seeds the worklist with
// the touched nodes and resumes the fixpoint from the current solution —
// the cheap half of incremental analysis the ROADMAP's
// analysis-as-a-service item calls for. Non-monotone edits (removals) are
// handled one level up by coarse invalidation: the Session rebuilds a
// fresh Live over the edited program.
//
// Correctness of resumption rests on monotonicity: inclusion constraints
// only ever grow points-to sets, so the least fixpoint of the extended
// system is reachable from the old fixpoint by running the same worklist
// algorithm seeded with the constraints whose inputs changed. Cycle
// collapses performed earlier remain valid because adding constraints
// never removes an edge, and the offline HCD table's pairs stay licensed
// for the same reason: a var-only offline cycle of the old program is
// still a cycle of every extension. (Offline *substitutions* — OVS — do
// NOT survive additions, which is why Resumable rejects them; see the
// package antgrass Session documentation.)
//
// A Live is confined to one goroutine at a time; concurrent readers are
// served by immutable snapshots the owner publishes (package antgrass).
type Live struct {
	prog  *constraint.Program
	opts  Options
	g     *graph
	st    *basicState
	epoch uint64
}

// Resumable reports whether a configuration supports in-place monotone
// resumption: the sequential worklist solvers (Naive and LCD) over bitmap
// points-to sets. Everything else — HT/PKH/PKW/BLQ (their propagation
// disciplines recompute from internal caches), BDD sets (shared mutable
// node table), and parallel solving (worker-private pool confinement) —
// is handled by replaying from scratch on update.
func Resumable(opts Options) bool {
	if opts.Algorithm != Naive && opts.Algorithm != LCD {
		return false
	}
	if opts.Workers >= 2 {
		return false
	}
	if opts.Pts != nil {
		name := opts.Pts.Name()
		return name == "bitmap" || name == "bitmap-plain"
	}
	return true
}

// NewLive builds the constraint graph for p, runs the initial fixpoint
// under ctx, and returns the resident state at epoch 1. opts must satisfy
// Resumable. p is retained (not copied): the caller owns it and may only
// mutate it through Add.
func NewLive(ctx context.Context, p *constraint.Program, opts Options) (*Live, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !Resumable(opts) {
		return nil, fmt.Errorf("core: configuration is not resumable (algorithm %s, workers %d)",
			opts.Algorithm, opts.Workers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Ctx = ctx
	opts.Workers = 0
	if opts.Pts == nil {
		opts.Pts = pts.NewBitmapFactory()
	}
	m := opts.Metrics
	var table *hcd.Result
	if opts.WithHCD {
		table = opts.HCDTable
		if table == nil {
			table = hcd.Analyze(p)
			m.AddPhase(metrics.PhaseHCD, table.Duration)
		}
	}
	buildSpan := m.StartPhase(metrics.PhaseBuild)
	g := newGraphDir(p, opts.Pts, table, false)
	buildSpan.End()
	g.metrics = m
	if opts.WithHCD && table != nil {
		g.stats.OfflineDuration = table.Duration
		g.stats.HCDPairs = len(table.Pairs)
	}
	l := &Live{prog: p, opts: opts, g: g}
	l.st = newBasicState(g, opts, opts.Algorithm == LCD)
	w := newWorklist(opts, g.n)
	l.st.seedAll(w)
	start := time.Now()
	if err := l.st.run(ctx, w); err != nil {
		return nil, err
	}
	l.st.exportMemo()
	online := time.Since(start)
	g.recordOnlinePhases(online, false)
	g.stats.SolveDuration = online
	g.stats.MemBytes = g.memBytes()
	l.epoch = 1
	return l, nil
}

// Epoch returns the number of completed fixpoints (1 after NewLive, +1
// per successful Add).
func (l *Live) Epoch() uint64 { return l.epoch }

// Prog returns the analyzed program (the caller's instance; it reflects
// every delta applied through Add).
func (l *Live) Prog() *constraint.Program { return l.prog }

// Stats returns the cumulative solver cost counters across all epochs.
func (l *Live) Stats() Stats { return *l.g.stats }

// Result assembles the current solution. The Result ALIASES the live
// solver state (union-find and set handles): it is valid only until the
// next Add, and must not be read concurrently with one. Callers that need
// an immutable view take copy-on-write shares of the sets (package
// antgrass's Snapshot does exactly that).
func (l *Live) Result() *Result {
	return NewResult(l.prog, l.g.nodes, l.g.sets, *l.g.stats)
}

// Finalize applies the same post-processing a one-shot solve performs —
// hash-consing the solution onto canonical backings and exporting the
// final counters into m — so a session-backed Solve reports identically
// to the historical pipeline. Worth calling once after the initial
// fixpoint; skipped on update epochs, where re-hashing every set would
// dwarf the incremental work.
func (l *Live) Finalize(m *metrics.Registry) {
	span := m.StartPhase(metrics.PhaseFinalize)
	for i := 0; i < l.g.n; i++ {
		if l.g.sets[i] != nil {
			pts.Dedup(l.g.sets[i])
		}
	}
	l.g.stats.MemBytes = l.g.memBytes()
	span.End()
	l.ExportMetrics(m)
}

// ExportMetrics writes the cumulative cost counters and memory-engine
// counters into m (a no-op on a nil registry).
func (l *Live) ExportMetrics(m *metrics.Registry) {
	m.SampleMem()
	l.g.stats.Export(m)
	l.g.exportAllocStats(m, l.opts.Pts)
	l.g.exportMemoStats(m, l.opts)
}

// Add applies a monotone delta and resumes the fixpoint under ctx. The
// caller must ALREADY have appended any new variables and the added
// constraints to the program NewLive was given (so program and graph stay
// in sync); added is the slice of appended constraints. Only the nodes the
// delta touches are re-seeded:
//
//   - AddrOf d s: insert s into pts(d); enqueue d's rep when it grew.
//   - Copy d s:   insert the edge; enqueue src's rep so its full set
//     flows across the new edge (unions into other successors no-op).
//   - Load/Store: extend the rep's constraint list and enqueue it so
//     every current pointee is resolved against the new constraint.
//
// Under difference propagation the touched reps' propagated-set markers
// are cleared first, forcing a full re-push (a new edge or constraint
// must see the whole set, not the delta since the last visit).
//
// On error (cancellation mid-resume) the state is tainted: the solution
// may be a partial extension of the old epoch. The caller must discard
// the Live (Session replays from scratch); Epoch is not advanced.
func (l *Live) Add(ctx context.Context, added []constraint.Constraint) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g := l.g
	g.grow(l.prog)
	w := newWorklist(l.opts, g.n)
	// seed re-seeds rep r for the resume: its set is interned first (a
	// delta-application boundary is where sets last mutated outside the
	// fixpoint loop, so canonicalizing here lets the resume — and the memo
	// table persisting across epochs — start from stable canonical ids
	// instead of waiting for an end-of-solve Dedup sweep), its
	// propagated marker cleared, and its rep enqueued. InternID is a no-op
	// for non-COW representations.
	seed := func(r uint32) {
		if s := g.sets[r]; s != nil {
			pts.InternID(s)
		}
		g.clearPropagated(r)
		w.Push(r)
	}
	for _, c := range added {
		switch c.Kind {
		case constraint.AddrOf:
			r := g.find(c.Dst)
			if g.ptsOf(r).Insert(c.Src) {
				seed(r)
			}
		case constraint.Copy:
			if g.addCopyEdge(c.Src, c.Dst) {
				rs := g.find(c.Src)
				if g.sets[rs] != nil && !g.sets[rs].Empty() {
					seed(rs)
				}
			}
		case constraint.Load:
			r := g.find(c.Src)
			g.loads[r] = append(g.loads[r], deref{Other: c.Dst, Off: c.Offset})
			if g.sets[r] != nil && !g.sets[r].Empty() {
				seed(r)
			}
		case constraint.Store:
			r := g.find(c.Dst)
			g.stores[r] = append(g.stores[r], deref{Other: c.Src, Off: c.Offset})
			if g.sets[r] != nil && !g.sets[r].Empty() {
				seed(r)
			}
		}
	}
	start := time.Now()
	if err := l.st.run(ctx, w); err != nil {
		return err
	}
	l.st.exportMemo()
	online := time.Since(start)
	g.recordOnlinePhases(online, false)
	g.stats.SolveDuration += online
	g.stats.MemBytes = g.memBytes()
	l.epoch++
	return nil
}
