package core

import (
	"context"
	"fmt"
	"runtime"

	"antgrass/internal/bitmap"
	"antgrass/internal/memo"
	"antgrass/internal/par"
	"antgrass/internal/pts"
	"antgrass/internal/worklist"
)

// solveAsync runs the Naive (lazy=false) or LCD (lazy=true) algorithm with
// asynchronous owner-computes propagation (par.AsyncEngine): one persistent
// goroutine per owner partition (owner(n) = n mod owners), each draining a
// private dirty queue and mailbox, applying work against owner-congruent
// graph state and forwarding generated deltas directly to destination
// owners — no frontier, no barrier, no merge phase. Termination is a
// Dijkstra–Safra token ring; union-find mutation serializes through the
// arbiter's global pause. See docs/ALGORITHMS.md §Asynchronous propagation
// for the ownership and termination arguments.
//
// The state split: pts(n), propagated(n), resolved(n), succs(n) and n's
// dirty membership are touched only by owner(n); loads/stores/hcdTargets/
// span are read-only on owner goroutines at owned indices; the union-find
// is read via FindRO between pauses and mutated only under a pause. The
// solution is the same least fixpoint every other solver computes.
func solveAsync(ctx context.Context, g *graph, opts Options, lazy bool) error {
	owners := max(opts.Workers, 1)
	g.stats.Workers = owners
	// Difference propagation is structural here: allocating the markers
	// also makes unite() reset them on collapse.
	g.propagated = make([]pts.Set, g.n)
	g.resolved = make([]pts.Set, g.n)
	if g.hcdTargets != nil {
		g.hcdResolved = make([]pts.Set, g.n)
	}
	s := newAsyncState(g, owners, lazy, opts.Memo)
	eng := par.NewAsyncEngine(ctx, owners, s)
	s.eng = eng
	eng.OnLap = func(lap int64) {
		// The arbiter goroutine IS the solving goroutine, so reading the
		// arbiter-owned stats and firing Progress here is single-threaded.
		g.metrics.SampleMem()
		if opts.Progress != nil {
			opts.Progress(ProgressEvent{
				Round:          int(lap),
				NodesCollapsed: g.stats.NodesCollapsed,
				Workers:        owners,
			})
		}
	}
	// Seed every representative with a nonempty set into its owner's dirty
	// queue (single-threaded: the engine has not started).
	for v := uint32(0); v < uint32(g.n); v++ {
		r := g.find(v)
		if g.sets[r] != nil && !g.sets[r].Empty() {
			s.ow[s.owner(r)].dirty.Push(r)
		}
	}
	if err := eng.Run(); err != nil {
		return canceled(err, "asynchronous propagation")
	}
	// Fold the owner-private counters (Run's WaitGroup join orders these
	// reads after every owner write).
	for i := range s.ow {
		g.stats.Propagations += s.ow[i].propagations
		g.stats.EdgesAdded += s.ow[i].edgesAdded
		g.stats.EdgeProbes += s.ow[i].edgeProbes
		if sh := s.ow[i].memo; sh != nil {
			g.memoStats.Add(sh.Stats())
			sh.Release()
		}
	}
	st := eng.Stats()
	g.stats.Rounds = st.TokenLaps
	if g.metrics != nil {
		g.metrics.SetCounter("async.messages", st.Messages)
		g.metrics.SetCounter("async.token_laps", st.TokenLaps)
		g.metrics.SetCounter("async.pauses", st.Pauses)
		hwmMax := 0
		for i, h := range st.MailboxHWM {
			g.metrics.SetCounter(fmt.Sprintf("async.mailbox_hwm.%d", i), int64(h))
			if h > hwmMax {
				hwmMax = h
			}
		}
		g.metrics.SetCounter("async.mailbox_hwm_max", int64(hwmMax))
		var gets, recycled int64
		for i := range s.ow {
			ps := s.ow[i].pool.Stats()
			gets += ps.Gets
			recycled += ps.Recycled
		}
		g.metrics.SetCounter("owner_pool_element_gets", gets)
		g.metrics.SetCounter("owner_pool_element_recycled", recycled)
	}
	return nil
}

// asyncBatchSize is how many payload items an outgoing batch accumulates
// before it is sent eagerly (Flush sends partial batches regardless).
const asyncBatchSize = 256

// asyncCandBatch is how many collapse candidates an owner buffers before
// mailing them to the arbiter. It is much smaller than asyncBatchSize:
// candidates age badly — every merge the arbiter hasn't applied yet lets
// owners keep realizing load/store edges between nodes that are about to
// become one — so they should reach the arbiter promptly.
const asyncCandBatch = 16

// asyncStashFull is how many stashed collapse candidates trigger a pause
// before the token ring comes around on its own.
const asyncStashFull = 64

// asyncOwnerState is one owner's private half of the solver: allocation
// pool, dirty queue, outgoing batch buffers and counters. Padded so the
// hot fields of adjacent owners don't share a cache line.
type asyncOwnerState struct {
	pool  *bitmap.Pool
	dirty *worklist.Frontier
	out   []*par.Batch // per-destination owner (index < owners) buffers
	cand  *par.Batch   // arbiter-bound candidate buffer
	memo  *memo.Shard  // owner-local delta memo, nil unless Options.Memo

	work *bitmap.Bitmap // scratch: set \ propagated of the current node
	res  *bitmap.Bitmap // scratch: set \ resolved of the current node
	hcd  *bitmap.Bitmap // scratch: set \ hcdResolved of the current node

	succScratch []uint32
	resScratch  []uint32
	step1       step1 // private stamps: owners realize concurrently

	// fired dedups LCD candidate sends per (src, dst) pair — the owner-side
	// mirror of the arbiter's global fired map; hcdPending dedups HCD
	// candidate sends per node until the next pause re-arms it.
	fired      map[uint64]bool
	hcdPending map[uint32]bool

	propagations int64
	edgesAdded   int64
	edgeProbes   int64
	_            [64]byte
}

// asyncState implements par.AsyncHooks over the constraint graph. The
// owner-indexed methods (Apply, Step, Flush and their helpers) run on
// owner goroutines and touch only owner-congruent state; Stash, StashEmpty,
// StashFull run on the arbiter; Collapse runs on the arbiter under the
// global pause with exclusive access to everything.
type asyncState struct {
	g      *graph
	eng    *par.AsyncEngine
	owners int
	lazy   bool
	ow     []asyncOwnerState

	// Arbiter-side stash: deduplicated LCD candidates and HCD nodes
	// awaiting the next pause, and the representatives to recheck after it.
	candQ    [][2]uint32
	hcdQ     []uint32
	fired    map[uint64]bool // global candidate dedup: each pair fires once
	hcdSeen  map[uint32]bool
	rechecks map[uint32]struct{}
}

func newAsyncState(g *graph, owners int, lazy, useMemo bool) *asyncState {
	s := &asyncState{
		g:        g,
		owners:   owners,
		lazy:     lazy,
		ow:       make([]asyncOwnerState, owners),
		fired:    make(map[uint64]bool),
		hcdSeen:  make(map[uint32]bool),
		rechecks: make(map[uint32]struct{}),
	}
	for w := range s.ow {
		ow := &s.ow[w]
		ow.pool = bitmap.NewPool()
		ow.dirty = worklist.NewFrontier(g.n)
		ow.out = make([]*par.Batch, owners)
		ow.work = bitmap.NewIn(ow.pool)
		ow.res = bitmap.NewIn(ow.pool)
		ow.hcd = bitmap.NewIn(ow.pool)
		ow.fired = make(map[uint64]bool)
		ow.hcdPending = make(map[uint32]bool)
		if useMemo {
			ow.memo = memo.NewShard(ow.pool)
		}
	}
	return s
}

// owner maps a node id to its owner partition.
func (s *asyncState) owner(n uint32) int { return int(n % uint32(s.owners)) }

// Step processes one dirty node of owner w: compute the unpropagated and
// unresolved parts of its set, push the delta along every copy edge
// (locally for same-owner successors, as a shared-payload message
// otherwise), record the propagated/resolved bookkeeping, then apply the
// resolution edges — so a local self-edge clears propagated AFTER the |=
// and fully requeues the node.
func (s *asyncState) Step(w int) bool {
	ow := &s.ow[w]
	n, ok := ow.dirty.Pop()
	if !ok {
		return false
	}
	g := s.g
	if g.nodes.FindRO(n) != n {
		// Absorbed since it was queued; the surviving representative was
		// mailed its own recheck by the pause that collapsed it.
		return true
	}
	set := g.sets[n]
	if set == nil || set.Empty() {
		return true
	}
	bm, _ := pts.AsBitmap(set)
	var propBM, resBM *bitmap.Bitmap
	if p := g.propagated[n]; p != nil {
		propBM, _ = pts.AsBitmap(p)
	}
	ow.work.ClearAll()
	hasWork := ow.work.IorDiffWith(bm, propBM)
	hasRes := false
	if len(g.loads[n]) > 0 || len(g.stores[n]) > 0 {
		if r := g.resolved[n]; r != nil {
			resBM, _ = pts.AsBitmap(r)
		}
		ow.res.ClearAll()
		hasRes = ow.res.IorDiffWith(bm, resBM)
	}
	if g.hcdTargets != nil && len(g.hcdTargets[n]) > 0 {
		var hrBM *bitmap.Bitmap
		if hr := g.hcdResolved[n]; hr != nil {
			hrBM, _ = pts.AsBitmap(hr)
		}
		ow.hcd.ClearAll()
		if ow.hcd.IorDiffWith(bm, hrBM) {
			// Apply-before-process, like the sequential pop loop: the
			// offline table proved these pointees merge, and every load/store
			// edge realized before the merge lands is an edge between nodes
			// that are about to become one. Park n until the next pause
			// fires the rule (it stamps hcdResolved and mails n a recheck),
			// and yield so the arbiter is not stuck behind this owner's
			// scheduler slice.
			s.bufferHCD(w, n)
			ow.dirty.Push(n)
			runtime.Gosched()
			return true
		}
	}
	if !hasWork && !hasRes {
		return true
	}
	if hasWork {
		if sb := g.succs[n]; sb != nil {
			ow.succScratch = sb.AppendTo(ow.succScratch[:0])
			// One immutable payload shared by every remote successor: the
			// receiver only reads it, so a single allocation fans out to
			// all destinations.
			var payload *bitmap.Bitmap
			var prev uint32
			first := true
			srcLen := uint32(set.Len())
			for _, z0 := range ow.succScratch {
				z := g.nodes.FindRO(z0)
				if z == n || (!first && z == prev) {
					continue
				}
				first, prev = false, z
				ow.propagations++
				if s.owner(z) == w {
					s.applyDeltaLocalFrom(w, n, z, set, ow.work)
				} else {
					if payload == nil {
						payload = bitmap.New()
						payload.IorWith(ow.work)
					}
					s.bufferDelta(w, s.owner(z), par.Delta{Src: n, Dst: z, Bits: payload, SrcLen: srcLen})
				}
			}
		}
		if g.propagated[n] == nil {
			g.propagated[n] = pts.NewSetIn(g.factory, ow.pool)
		}
		pb, _ := pts.MutableBitmapIn(g.propagated[n], ow.pool)
		pb.IorWith(ow.work)
	}
	if hasRes {
		if g.resolved[n] == nil {
			g.resolved[n] = pts.NewSetIn(g.factory, ow.pool)
		}
		rb, _ := pts.MutableBitmapIn(g.resolved[n], ow.pool)
		rb.IorWith(ow.res)
		// A pause, the only place the union-find changes, lands between
		// Steps, so FindRO is stable for the whole visit.
		ow.resScratch = ow.res.AppendTo(ow.resScratch[:0])
		g.realize(&ow.step1, ow.resScratch, g.loads[n], g.stores[n], g.nodes.FindRO, func(rs, rd uint32) bool {
			s.emitEdge(w, rs, rd)
			return false
		})
	}
	return true
}

// Apply applies one received batch against owner w's state, re-resolving
// every id (a pause may have migrated it to another owner since the send)
// and forwarding entries that no longer belong here.
func (s *asyncState) Apply(w int, b *par.Batch) {
	g := s.g
	for _, d := range b.Deltas {
		rd := g.nodes.FindRO(d.Dst)
		if s.owner(rd) != w {
			s.bufferDelta(w, s.owner(rd), par.Delta{Src: d.Src, Dst: rd, Bits: d.Bits, SrcLen: d.SrcLen})
			continue
		}
		s.applyDeltaLocal(w, d.Src, rd, d.SrcLen, d.Bits)
	}
	for _, e := range b.Edges {
		rs, rd := g.nodes.FindRO(e[0]), g.nodes.FindRO(e[1])
		if rs == rd {
			continue
		}
		if s.owner(rs) != w {
			s.bufferEdge(w, s.owner(rs), rs, rd)
			continue
		}
		s.applyEdgeLocal(w, rs, rd)
	}
	for _, r := range b.Rechecks {
		rr := g.nodes.FindRO(r)
		if s.owner(rr) != w {
			s.bufferRecheck(w, s.owner(rr), rr)
			continue
		}
		// A collapse cleared the representative's propagated/resolved
		// markers (unite does), so one dirty push re-propagates everything.
		s.ow[w].dirty.Push(rr)
	}
}

// applyDeltaLocal ors bits into pts(dst), dst owned by w, for a delta whose
// source belongs to another owner. A delta that adds nothing nominates
// (src, dst) as an LCD cycle candidate when the two sets are plausibly
// equal — the receiver cannot read the sender-owned pts(src), so LCD's
// full-set equality check degrades to comparing |pts(dst)| against the
// SrcLen that rode on the message. The trigger is heuristic
// either way: detectAndCollapse only collapses true cycles, so a spurious
// nomination costs a search, never soundness — but dropping the filter
// floods the arbiter with candidates from every subsumed delta on the
// dense core of the graph.
func (s *asyncState) applyDeltaLocal(w int, src, dst uint32, srcLen uint32, bits *bitmap.Bitmap) {
	set, grew := s.iorDelta(w, dst, bits)
	if grew {
		return
	}
	if s.lazy && (s.g.hcdTargets != nil || uint32(set.Len()) == srcLen) {
		// With HCD armed the ring pauses constantly anyway (every parked
		// nominator forces one), so a loose nomination rides along free and
		// collapses cycles before the deref flood; without it, pauses exist
		// only for LCD, and the size filter keeps the dense core from
		// nominating every subsumed delta.
		s.bufferCand(w, src, dst)
	}
}

// applyDeltaLocalFrom is applyDeltaLocal for a same-owner delta: the source
// set is owned by w too, so the LCD trigger can run the exact full-set
// equality check instead of the size heuristic.
func (s *asyncState) applyDeltaLocalFrom(w int, src, dst uint32, srcSet pts.Set, bits *bitmap.Bitmap) {
	set, grew := s.iorDelta(w, dst, bits)
	if grew {
		return
	}
	if s.lazy && (s.g.hcdTargets != nil || set.Equal(srcSet)) {
		s.bufferCand(w, src, dst)
	}
}

// iorDelta ors bits into pts(dst) (allocating on first use) and dirties dst
// when the set grew.
func (s *asyncState) iorDelta(w int, dst uint32, bits *bitmap.Bitmap) (pts.Set, bool) {
	ow := &s.ow[w]
	g := s.g
	set := g.sets[dst]
	if set == nil {
		set = pts.NewSetIn(g.factory, ow.pool)
		g.sets[dst] = set
	}
	// The owner shard subsumes repeated (node, payload) deltas — the async
	// engine's redelivery pattern (rechecks, re-propagated edges) makes
	// them common — without walking either bitmap.
	if ow.memo != nil {
		if ch, okM := ow.memo.Apply(dst, set, bits); okM {
			if ch {
				ow.dirty.Push(dst)
			}
			return set, ch
		}
	}
	bm, _ := pts.MutableBitmapIn(set, ow.pool)
	if bm.IorWith(bits) {
		ow.dirty.Push(dst)
		return set, true
	}
	return set, false
}

// applyEdgeLocal inserts the copy edge rs → rd (distinct reps, rs owned by
// w). A fresh edge must carry rs's full current set, not just future
// deltas: forget what rs already propagated and requeue it.
func (s *asyncState) applyEdgeLocal(w int, rs, rd uint32) {
	ow := &s.ow[w]
	g := s.g
	if !g.addEdgeIn(rs, rd, ow.pool) {
		return
	}
	ow.edgesAdded++
	if g.propagated[rs] != nil {
		pts.Release(g.propagated[rs])
		g.propagated[rs] = nil
	}
	if set := g.sets[rs]; set != nil && !set.Empty() {
		ow.dirty.Push(rs)
	}
}

// emitEdge is step 1's sink on owner w: it routes the copy edge rs → rd
// (representatives) to the owner of rs. A duplicate is a no-op there.
func (s *asyncState) emitEdge(w int, rs, rd uint32) {
	s.ow[w].edgeProbes++
	if rs == rd {
		return
	}
	if s.owner(rs) == w {
		s.applyEdgeLocal(w, rs, rd)
	} else {
		s.bufferEdge(w, s.owner(rs), rs, rd)
	}
}

// outBatch returns owner w's buffered batch for destination owner `to`.
func (s *asyncState) outBatch(w, to int) *par.Batch {
	ow := &s.ow[w]
	b := ow.out[to]
	if b == nil {
		b = &par.Batch{}
		ow.out[to] = b
	}
	return b
}

func (s *asyncState) outLen(b *par.Batch) int {
	return len(b.Deltas) + len(b.Edges) + len(b.Rechecks)
}

func (s *asyncState) bufferDelta(w, to int, d par.Delta) {
	b := s.outBatch(w, to)
	b.Deltas = append(b.Deltas, d)
	if s.outLen(b) >= asyncBatchSize {
		s.ow[w].out[to] = nil
		s.eng.Send(w, to, b)
	}
}

func (s *asyncState) bufferEdge(w, to int, rs, rd uint32) {
	b := s.outBatch(w, to)
	b.Edges = append(b.Edges, [2]uint32{rs, rd})
	if s.outLen(b) >= asyncBatchSize {
		s.ow[w].out[to] = nil
		s.eng.Send(w, to, b)
	}
}

func (s *asyncState) bufferRecheck(w, to int, r uint32) {
	b := s.outBatch(w, to)
	b.Rechecks = append(b.Rechecks, r)
	if s.outLen(b) >= asyncBatchSize {
		s.ow[w].out[to] = nil
		s.eng.Send(w, to, b)
	}
}

// bufferCand queues the LCD candidate (src, dst) for the arbiter, once per
// pair per owner.
func (s *asyncState) bufferCand(w int, src, dst uint32) {
	ow := &s.ow[w]
	key := uint64(src)<<32 | uint64(dst)
	if ow.fired[key] {
		return
	}
	ow.fired[key] = true
	if ow.cand == nil {
		ow.cand = &par.Batch{}
	}
	ow.cand.Cands = append(ow.cand.Cands, [2]uint32{src, dst})
	if len(ow.cand.Cands)+len(ow.cand.HCD) >= asyncCandBatch {
		b := ow.cand
		ow.cand = nil
		s.eng.Send(w, s.eng.Arbiter(), b)
	}
}

// bufferHCD queues node n for an HCD online-rule firing at the next pause,
// once per node per pause window (Collapse re-arms the dedup, so later
// points-to growth fires the tuples again).
func (s *asyncState) bufferHCD(w int, n uint32) {
	ow := &s.ow[w]
	if ow.hcdPending[n] {
		return
	}
	ow.hcdPending[n] = true
	if ow.cand == nil {
		ow.cand = &par.Batch{}
	}
	ow.cand.HCD = append(ow.cand.HCD, n)
	// An HCD candidate is a merge the offline table already proved, and the
	// nominating node is parked until it lands (see Step) — ship it
	// immediately so the pause comes as soon as the arbiter runs.
	b := ow.cand
	ow.cand = nil
	s.eng.Send(w, s.eng.Arbiter(), b)
}

// Flush sends every partially filled outgoing batch of owner w — the
// engine calls it before the owner forwards the token or parks, so
// buffered work is always visible to the Safra counters.
func (s *asyncState) Flush(w int) {
	ow := &s.ow[w]
	for to, b := range ow.out {
		if b != nil && s.outLen(b) > 0 {
			ow.out[to] = nil
			s.eng.Send(w, to, b)
		}
	}
	if b := ow.cand; b != nil && len(b.Cands)+len(b.HCD) > 0 {
		ow.cand = nil
		s.eng.Send(w, s.eng.Arbiter(), b)
	}
}

// Stash records a candidate batch on the arbiter, deduplicating against
// everything already fired (the global fired map makes LCD's one-shot
// guarantee: each edge pair triggers at most one search).
func (s *asyncState) Stash(b *par.Batch) {
	for _, c := range b.Cands {
		key := uint64(c[0])<<32 | uint64(c[1])
		if s.fired[key] {
			continue
		}
		s.fired[key] = true
		s.candQ = append(s.candQ, c)
	}
	for _, n := range b.HCD {
		if s.hcdSeen[n] {
			continue
		}
		s.hcdSeen[n] = true
		s.hcdQ = append(s.hcdQ, n)
	}
}

func (s *asyncState) StashEmpty() bool { return len(s.candQ) == 0 && len(s.hcdQ) == 0 }

// StashFull paces the arbiter's pauses. HCD candidates are certain merges
// (the offline table proved the cycle), and every deferred merge lets the
// owners realize load/store edges between nodes that are about to become
// one — so any pending HCD node is worth an immediate pause. LCD
// candidates are speculative; they accumulate to asyncStashFull before a
// pause, and the multi-root search amortizes the whole batch into one
// graph traversal.
func (s *asyncState) StashFull() bool {
	return len(s.hcdQ) > 0 || len(s.candQ) >= asyncStashFull
}

// Collapse runs under the global pause with exclusive graph access: fire
// the stashed HCD tuples, run the LCD cycle searches, then mail one
// deduplicated recheck per surviving representative to its owner. It is
// the only place the union-find is mutated during a solve, which is what
// lets every owner-side lookup use FindRO without locks.
func (s *asyncState) Collapse() {
	g := s.g
	push := func(rep uint32) { s.rechecks[rep] = struct{}{} }
	for _, n := range s.hcdQ {
		rn := g.find(n)
		g.applyHCD(rn, push)
		// The nominator parked itself until the rule fired (Step), so it
		// always needs a recheck — even when the rule united nothing new.
		push(g.find(rn))
	}
	// Re-arm the owner-side HCD dedup: owners are parked (the pause's ack
	// channel ordered their writes before this read), so touching their
	// maps here is exclusive.
	for w := range s.ow {
		clear(s.ow[w].hcdPending)
	}
	// One multi-root Nuutila pass covers every stashed candidate: the
	// candidates overwhelmingly point into the same dense region of the
	// graph, so per-pair searches would re-walk the same structure dozens
	// of times while a shared pass visits each node once.
	roots := make([]uint32, 0, len(s.candQ))
	rootSeen := make(map[uint32]bool, len(s.candQ))
	for _, c := range s.candQ {
		rn, rz := g.find(c[0]), g.find(c[1])
		if rn == rz {
			continue
		}
		g.stats.CycleChecks++
		if !rootSeen[rz] {
			rootSeen[rz] = true
			roots = append(roots, rz)
		}
	}
	if len(roots) > 0 {
		// Every representative the search merges is pushed for a recheck by
		// the collapse itself (unite resets its propagated/resolved memos).
		// The unmerged source side of a pair needs nothing: its set and
		// memos are intact, and its contribution to the merged component
		// already flowed through the absorbed successor — re-pushing it per
		// pair only feeds the recheck → re-propagation → nomination loop.
		g.detectAndCollapseMulti(roots, push)
	}
	s.candQ = s.candQ[:0]
	// Stamp the HCD memo last, after every union above settled the forest:
	// each nominator's surviving representative has now run the online rule
	// over its entire current set, so its owner can process it without
	// re-parking until the set grows again.
	if g.hcdResolved != nil {
		for _, n := range s.hcdQ {
			rn := g.find(n)
			if set := g.sets[rn]; set != nil {
				if g.hcdResolved[rn] == nil {
					g.hcdResolved[rn] = g.factory.New()
				}
				g.hcdResolved[rn].UnionWith(set)
			}
		}
	}
	s.hcdQ = s.hcdQ[:0]
	clear(s.hcdSeen)
	if len(s.rechecks) == 0 {
		return
	}
	// Canonicalize the recheck set (collapses above may have merged
	// entries), group by destination owner and mail — counted like any
	// other work, so the rechecks hold off the termination detector.
	batches := make(map[int]*par.Batch)
	reps := make(map[uint32]struct{}, len(s.rechecks))
	for x := range s.rechecks {
		reps[g.find(x)] = struct{}{}
	}
	for r := range reps {
		to := s.owner(r)
		b := batches[to]
		if b == nil {
			b = &par.Batch{}
			batches[to] = b
		}
		b.Rechecks = append(b.Rechecks, r)
	}
	for to, b := range batches {
		s.eng.Send(s.eng.Arbiter(), to, b)
	}
	clear(s.rechecks)
}
