package core

import (
	"testing"

	"antgrass/internal/constraint"
	"antgrass/internal/synth"
	"antgrass/internal/worklist"
)

// TestStep1KeepsSchedule pins the §5.3 counters of the sequential
// Naive/LCD loop on ghostscript at scale 0.05 under every worklist kind,
// ±HCD, ±DiffProp and ±Memo. The values were recorded from the literal
// Figure 1 step 1, which probes every (pointee, constraint) pair. Step 1
// may skip only probes that cannot add an edge, so none of these
// counters may move; a skipped probe that could have added an edge
// changes the schedule and shows up here even when the solution, by
// luck, does not.
func TestStep1KeepsSchedule(t *testing.T) {
	prof, _ := synth.ProfileByName("ghostscript")
	p := synth.Generate(prof.Scale(0.05))
	checkSchedule(t, p, []scheduleCase{
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LRF, DiffProp: false, Memo: false}, Stats{Propagations: 325509, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LRF, DiffProp: false, Memo: true}, Stats{Propagations: 325509, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LRF, DiffProp: true, Memo: false}, Stats{Propagations: 277019, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LRF, DiffProp: true, Memo: true}, Stats{Propagations: 277063, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.FIFO, DiffProp: false, Memo: false}, Stats{Propagations: 357411, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.FIFO, DiffProp: false, Memo: true}, Stats{Propagations: 357647, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.FIFO, DiffProp: true, Memo: false}, Stats{Propagations: 271471, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.FIFO, DiffProp: true, Memo: true}, Stats{Propagations: 271515, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LIFO, DiffProp: false, Memo: false}, Stats{Propagations: 362372, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LIFO, DiffProp: false, Memo: true}, Stats{Propagations: 354438, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LIFO, DiffProp: true, Memo: false}, Stats{Propagations: 259544, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: false, Worklist: worklist.LIFO, DiffProp: true, Memo: true}, Stats{Propagations: 259544, EdgesAdded: 97100, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 0, HCDCollapses: 0}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LRF, DiffProp: false, Memo: false}, Stats{Propagations: 7862, EdgesAdded: 2153, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LRF, DiffProp: false, Memo: true}, Stats{Propagations: 7862, EdgesAdded: 2153, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LRF, DiffProp: true, Memo: false}, Stats{Propagations: 7092, EdgesAdded: 2155, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LRF, DiffProp: true, Memo: true}, Stats{Propagations: 7092, EdgesAdded: 2155, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.FIFO, DiffProp: false, Memo: false}, Stats{Propagations: 8202, EdgesAdded: 2153, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.FIFO, DiffProp: false, Memo: true}, Stats{Propagations: 8202, EdgesAdded: 2153, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.FIFO, DiffProp: true, Memo: false}, Stats{Propagations: 7105, EdgesAdded: 2157, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.FIFO, DiffProp: true, Memo: true}, Stats{Propagations: 7105, EdgesAdded: 2157, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LIFO, DiffProp: false, Memo: false}, Stats{Propagations: 6295, EdgesAdded: 2156, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LIFO, DiffProp: false, Memo: true}, Stats{Propagations: 6295, EdgesAdded: 2156, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LIFO, DiffProp: true, Memo: false}, Stats{Propagations: 6216, EdgesAdded: 2160, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: Naive, WithHCD: true, Worklist: worklist.LIFO, DiffProp: true, Memo: true}, Stats{Propagations: 6216, EdgesAdded: 2160, CycleChecks: 0, NodesSearched: 0, NodesCollapsed: 112, HCDCollapses: 112}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LRF, DiffProp: false, Memo: false}, Stats{Propagations: 2347, EdgesAdded: 43730, CycleChecks: 219, NodesSearched: 2115, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LRF, DiffProp: false, Memo: true}, Stats{Propagations: 2347, EdgesAdded: 43730, CycleChecks: 219, NodesSearched: 2115, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LRF, DiffProp: true, Memo: false}, Stats{Propagations: 15976, EdgesAdded: 31521, CycleChecks: 209, NodesSearched: 2098, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LRF, DiffProp: true, Memo: true}, Stats{Propagations: 16003, EdgesAdded: 31521, CycleChecks: 209, NodesSearched: 2098, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.FIFO, DiffProp: false, Memo: false}, Stats{Propagations: 1975, EdgesAdded: 43804, CycleChecks: 242, NodesSearched: 1943, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.FIFO, DiffProp: false, Memo: true}, Stats{Propagations: 1924, EdgesAdded: 43792, CycleChecks: 242, NodesSearched: 1943, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.FIFO, DiffProp: true, Memo: false}, Stats{Propagations: 16372, EdgesAdded: 32109, CycleChecks: 210, NodesSearched: 2101, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.FIFO, DiffProp: true, Memo: true}, Stats{Propagations: 16399, EdgesAdded: 32109, CycleChecks: 210, NodesSearched: 2101, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LIFO, DiffProp: false, Memo: false}, Stats{Propagations: 1433, EdgesAdded: 57814, CycleChecks: 214, NodesSearched: 2026, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LIFO, DiffProp: false, Memo: true}, Stats{Propagations: 1433, EdgesAdded: 57814, CycleChecks: 214, NodesSearched: 2026, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LIFO, DiffProp: true, Memo: false}, Stats{Propagations: 47756, EdgesAdded: 53613, CycleChecks: 204, NodesSearched: 2226, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: false, Worklist: worklist.LIFO, DiffProp: true, Memo: true}, Stats{Propagations: 47756, EdgesAdded: 53613, CycleChecks: 204, NodesSearched: 2226, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LRF, DiffProp: false, Memo: false}, Stats{Propagations: 1817, EdgesAdded: 2018, CycleChecks: 218, NodesSearched: 1561, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LRF, DiffProp: false, Memo: true}, Stats{Propagations: 1817, EdgesAdded: 2018, CycleChecks: 218, NodesSearched: 1561, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LRF, DiffProp: true, Memo: false}, Stats{Propagations: 2547, EdgesAdded: 2071, CycleChecks: 211, NodesSearched: 1773, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LRF, DiffProp: true, Memo: true}, Stats{Propagations: 2547, EdgesAdded: 2071, CycleChecks: 211, NodesSearched: 1773, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.FIFO, DiffProp: false, Memo: false}, Stats{Propagations: 1817, EdgesAdded: 2018, CycleChecks: 218, NodesSearched: 1561, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.FIFO, DiffProp: false, Memo: true}, Stats{Propagations: 1817, EdgesAdded: 2018, CycleChecks: 218, NodesSearched: 1561, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.FIFO, DiffProp: true, Memo: false}, Stats{Propagations: 2522, EdgesAdded: 2071, CycleChecks: 211, NodesSearched: 1773, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.FIFO, DiffProp: true, Memo: true}, Stats{Propagations: 2522, EdgesAdded: 2071, CycleChecks: 211, NodesSearched: 1773, NodesCollapsed: 864, HCDCollapses: 104}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LIFO, DiffProp: false, Memo: false}, Stats{Propagations: 1303, EdgesAdded: 1915, CycleChecks: 214, NodesSearched: 1916, NodesCollapsed: 864, HCDCollapses: 110}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LIFO, DiffProp: false, Memo: true}, Stats{Propagations: 1303, EdgesAdded: 1915, CycleChecks: 214, NodesSearched: 1916, NodesCollapsed: 864, HCDCollapses: 110}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LIFO, DiffProp: true, Memo: false}, Stats{Propagations: 2113, EdgesAdded: 1912, CycleChecks: 198, NodesSearched: 1885, NodesCollapsed: 864, HCDCollapses: 110}},
		{Options{Algorithm: LCD, WithHCD: true, Worklist: worklist.LIFO, DiffProp: true, Memo: true}, Stats{Propagations: 2113, EdgesAdded: 1912, CycleChecks: 198, NodesSearched: 1885, NodesCollapsed: 864, HCDCollapses: 110}},
	})
}

// TestStep1KeepsScheduleOtherSolvers pins the same counters, plus
// Rounds, for HT, PKH and PKW ±HCD on ghostscript at scale 0.05 (HT
// also ±Memo, PKW under every worklist kind). The values were recorded
// from each solver's literal per-pointee step 1, before all of them
// moved onto the shared stamped kernel. PKW is the case that tests the
// kernel's rule for a sink that unites: an insertion that collapses a
// cycle mid-visit must open a new visit, or a stamped representative
// hides a probe whose destination representative just changed.
func TestStep1KeepsScheduleOtherSolvers(t *testing.T) {
	prof, _ := synth.ProfileByName("ghostscript")
	p := synth.Generate(prof.Scale(0.05))
	checkSchedule(t, p, []scheduleCase{
		{Options{Algorithm: HT, WithHCD: false, Memo: false}, Stats{Propagations: 843, EdgesAdded: 54255, CycleChecks: 0, NodesSearched: 2220, NodesCollapsed: 864, HCDCollapses: 0, Rounds: 4}},
		{Options{Algorithm: HT, WithHCD: false, Memo: true}, Stats{Propagations: 843, EdgesAdded: 54255, CycleChecks: 0, NodesSearched: 2220, NodesCollapsed: 864, HCDCollapses: 0, Rounds: 4}},
		{Options{Algorithm: HT, WithHCD: true, Memo: false}, Stats{Propagations: 687, EdgesAdded: 1984, CycleChecks: 0, NodesSearched: 1996, NodesCollapsed: 864, HCDCollapses: 112, Rounds: 4}},
		{Options{Algorithm: HT, WithHCD: true, Memo: true}, Stats{Propagations: 687, EdgesAdded: 1984, CycleChecks: 0, NodesSearched: 1996, NodesCollapsed: 864, HCDCollapses: 112, Rounds: 4}},
		{Options{Algorithm: PKH, WithHCD: false}, Stats{Propagations: 37144, EdgesAdded: 58307, CycleChecks: 3, NodesSearched: 4037, NodesCollapsed: 864, HCDCollapses: 0, Rounds: 3}},
		{Options{Algorithm: PKH, WithHCD: true}, Stats{Propagations: 1305, EdgesAdded: 1836, CycleChecks: 3, NodesSearched: 3925, NodesCollapsed: 864, HCDCollapses: 112, Rounds: 3}},
		{Options{Algorithm: PKW, WithHCD: false, Worklist: worklist.LRF}, Stats{Propagations: 1049, EdgesAdded: 11121, CycleChecks: 137, NodesSearched: 31939, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: PKW, WithHCD: false, Worklist: worklist.FIFO}, Stats{Propagations: 1049, EdgesAdded: 11121, CycleChecks: 137, NodesSearched: 31939, NodesCollapsed: 864, HCDCollapses: 0}},
		{Options{Algorithm: PKW, WithHCD: false, Worklist: worklist.LIFO}, Stats{Propagations: 1153, EdgesAdded: 12721, CycleChecks: 477, NodesSearched: 34330, NodesCollapsed: 863, HCDCollapses: 0}},
		{Options{Algorithm: PKW, WithHCD: true, Worklist: worklist.LRF}, Stats{Propagations: 1480, EdgesAdded: 1839, CycleChecks: 144, NodesSearched: 5380, NodesCollapsed: 863, HCDCollapses: 111}},
		{Options{Algorithm: PKW, WithHCD: true, Worklist: worklist.FIFO}, Stats{Propagations: 1477, EdgesAdded: 1839, CycleChecks: 144, NodesSearched: 5380, NodesCollapsed: 863, HCDCollapses: 111}},
		{Options{Algorithm: PKW, WithHCD: true, Worklist: worklist.LIFO}, Stats{Propagations: 865, EdgesAdded: 1837, CycleChecks: 328, NodesSearched: 4888, NodesCollapsed: 861, HCDCollapses: 110}},
	})
}

type scheduleCase struct {
	opts Options
	want Stats
}

// checkSchedule solves p under every case and compares the §5.3
// counters that step 1 must not move.
func checkSchedule(t *testing.T, p *constraint.Program, cases []scheduleCase) {
	t.Helper()
	for _, tc := range cases {
		r, err := Solve(p, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		got := Stats{
			Propagations:   r.Stats.Propagations,
			EdgesAdded:     r.Stats.EdgesAdded,
			CycleChecks:    r.Stats.CycleChecks,
			NodesSearched:  r.Stats.NodesSearched,
			NodesCollapsed: r.Stats.NodesCollapsed,
			HCDCollapses:   r.Stats.HCDCollapses,
			Rounds:         r.Stats.Rounds,
		}
		if got != tc.want {
			o := tc.opts
			t.Errorf("%s worklist %s memo %v: counters %+v, want %+v",
				configName(o), o.Worklist, o.Memo, got, tc.want)
		}
	}
}
