package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"antgrass/internal/core"
)

// reportAlgos is a small matrix covering both solver families and HCD.
var reportAlgos = []AlgoID{
	{Name: "lcd", Alg: core.LCD},
	{Name: "lcd+hcd", Alg: core.LCD, HCD: true},
	{Name: "blq", BLQ: true},
}

func testReport(t *testing.T, workers int) *Report {
	t.Helper()
	h := NewHarness(0.05)
	return h.Report([]string{"emacs"}, reportAlgos, workers, time.Unix(1754400000, 0))
}

func TestReportSchema(t *testing.T) {
	rep := testReport(t, 0)
	if rep.SchemaVersion != ReportSchemaVersion {
		t.Fatalf("schema version = %d, want %d", rep.SchemaVersion, ReportSchemaVersion)
	}
	if rep.GeneratedAt == "" || rep.Host.GoVersion == "" || rep.Host.NumCPU <= 0 {
		t.Fatalf("incomplete header: %+v", rep)
	}
	if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
		t.Fatalf("GeneratedAt %q not RFC3339: %v", rep.GeneratedAt, err)
	}
	if len(rep.Runs) != len(reportAlgos) {
		t.Fatalf("got %d runs, want %d", len(rep.Runs), len(reportAlgos))
	}
	for _, r := range rep.Runs {
		if r.Error != "" {
			t.Fatalf("%s: solve error: %s", r.Key(), r.Error)
		}
		if r.Bench != "emacs" || r.WallSeconds <= 0 {
			t.Fatalf("bad run %+v", r)
		}
		if len(r.Phases) == 0 || len(r.Counters) == 0 {
			t.Fatalf("%s: missing phases/counters: %+v", r.Key(), r)
		}
		if r.PeakHeapBytes == 0 {
			t.Fatalf("%s: no peak-memory sample", r.Key())
		}
		if r.MemBytes <= 0 {
			t.Fatalf("%s: no analytic memory", r.Key())
		}
	}
}

// TestReportPhasesCoverWall is the acceptance criterion: the per-run
// phase breakdown must sum to within 10% of the measured wall time — the
// spans are disjoint and cover the solve, so a large gap means a phase
// went missing.
func TestReportPhasesCoverWall(t *testing.T) {
	// Averaging over attempts guards against a single descheduling
	// blip on a loaded CI machine.
	rep := testReport(t, 0)
	for _, r := range rep.Runs {
		sum := r.PhaseTotalSeconds()
		if sum < 0.90*r.WallSeconds || sum > 1.10*r.WallSeconds {
			t.Errorf("%s: phase sum %.6fs vs wall %.6fs (%.0f%% coverage); phases: %+v",
				r.Key(), sum, r.WallSeconds, 100*sum/r.WallSeconds, r.Phases)
		}
	}
}

func TestReportParallelRuns(t *testing.T) {
	rep := testReport(t, 2)
	var seq, par int
	for _, r := range rep.Runs {
		switch r.Workers {
		case 0:
			seq++
		case 2:
			par++
			found := false
			for _, c := range r.Counters {
				if c.Name == "rounds" && c.Value > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: parallel run reported no rounds", r.Key())
			}
		default:
			t.Errorf("unexpected worker count in %s", r.Key())
		}
	}
	if seq != len(reportAlgos) || par != len(ParallelAlgos) {
		t.Fatalf("got %d sequential + %d parallel runs, want %d + %d",
			seq, par, len(reportAlgos), len(ParallelAlgos))
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := testReport(t, 0)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != rep.SchemaVersion || len(back.Runs) != len(rep.Runs) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	for i := range rep.Runs {
		if back.Runs[i].Key() != rep.Runs[i].Key() ||
			back.Runs[i].WallSeconds != rep.Runs[i].WallSeconds {
			t.Fatalf("run %d mismatch: %+v vs %+v", i, back.Runs[i], rep.Runs[i])
		}
	}
}

func TestReadReportRejectsUnknownSchema(t *testing.T) {
	_, err := ReadReport(strings.NewReader(`{"schema_version": 999, "runs": []}`))
	if err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("expected schema version error, got %v", err)
	}
}

// TestDiffInjectedRegression is the acceptance criterion for the
// comparator: an injected 50% slowdown must be flagged at a 15%
// threshold.
func TestDiffInjectedRegression(t *testing.T) {
	mkRun := func(bench, algo string, wall float64) Run {
		return Run{Bench: bench, Algo: algo, Pts: "bitmap", WallSeconds: wall}
	}
	oldRep := &Report{SchemaVersion: ReportSchemaVersion, Runs: []Run{
		mkRun("emacs", "lcd", 1.0),
		mkRun("emacs", "hcd", 2.0),
		mkRun("wine", "lcd", 4.0),
	}}
	newRep := &Report{SchemaVersion: ReportSchemaVersion, Runs: []Run{
		mkRun("emacs", "lcd", 1.02), // noise
		mkRun("emacs", "hcd", 3.0),  // injected +50%
		mkRun("wine", "lcd", 3.5),   // improvement
	}}
	diff := DiffReports(oldRep, newRep, DiffOptions{ThresholdPercent: 15})
	if diff.Regressions != 1 || !diff.Failed() {
		t.Fatalf("want exactly 1 regression, got %+v", diff)
	}
	for _, e := range diff.Entries {
		want := e.Key == "emacs/hcd/bitmap/w0"
		if e.Regression != want {
			t.Errorf("entry %s: regression=%v, want %v", e.Key, e.Regression, want)
		}
	}
	// A generous threshold passes the same pair.
	if d := DiffReports(oldRep, newRep, DiffOptions{ThresholdPercent: 60}); d.Failed() {
		t.Fatalf("60%% threshold should pass, got %+v", d)
	}
	var buf bytes.Buffer
	diff.Print(&buf)
	if !strings.Contains(buf.String(), "REGRESSION") || !strings.Contains(buf.String(), "1 regression(s)") {
		t.Fatalf("diff output missing verdicts:\n%s", buf.String())
	}
}

// TestDiffAllocAndMemGates covers the allocation/peak-memory regression
// gates: each trips independently of the wall clock, and both are vacuous
// when either report lacks the measurement (older schema producers).
func TestDiffAllocAndMemGates(t *testing.T) {
	mkRun := func(algo string, wall float64, allocs, peak uint64) Run {
		return Run{Bench: "emacs", Algo: algo, Pts: "bitmap",
			WallSeconds: wall, Allocs: allocs, PeakHeapBytes: peak}
	}
	oldRep := &Report{SchemaVersion: ReportSchemaVersion, Runs: []Run{
		mkRun("lcd", 1.0, 1000, 1<<20),
		mkRun("ht", 1.0, 1000, 1<<20),
		mkRun("pkh", 1.0, 0, 0), // old report without the fields
	}}
	newRep := &Report{SchemaVersion: ReportSchemaVersion, Runs: []Run{
		mkRun("lcd", 1.0, 1500, 1<<20),    // +50% allocs, flat wall/mem
		mkRun("ht", 1.0, 1000, 3*(1<<20)), // 3x peak heap
		mkRun("pkh", 1.0, 9999, 1<<30),    // no baseline: exempt
	}}
	opts := DiffOptions{ThresholdPercent: 15, AllocThresholdPercent: 10, MemThresholdPercent: 10}
	diff := DiffReports(oldRep, newRep, opts)
	if diff.Regressions != 2 || !diff.Failed() {
		t.Fatalf("want 2 regressions (allocs, peak-mem), got %+v", diff)
	}
	why := map[string]string{}
	for _, e := range diff.Entries {
		why[e.Key] = strings.Join(e.Why, ",")
	}
	if why["emacs/lcd/bitmap/w0"] != "allocs" {
		t.Fatalf("lcd should trip the alloc gate, got %q", why["emacs/lcd/bitmap/w0"])
	}
	if why["emacs/ht/bitmap/w0"] != "peak-mem" {
		t.Fatalf("ht should trip the peak-mem gate, got %q", why["emacs/ht/bitmap/w0"])
	}
	if why["emacs/pkh/bitmap/w0"] != "" {
		t.Fatalf("pkh lacks a baseline and must be exempt, got %q", why["emacs/pkh/bitmap/w0"])
	}
	// Disabling the gates (0) passes the same pair.
	if d := DiffReports(oldRep, newRep, DiffOptions{ThresholdPercent: 15}); d.Failed() {
		t.Fatalf("disabled gates should pass, got %+v", d)
	}
}

func TestDiffNoiseFloorAndMissingRuns(t *testing.T) {
	oldRep := &Report{SchemaVersion: ReportSchemaVersion, Runs: []Run{
		{Bench: "emacs", Algo: "lcd", Pts: "bitmap", WallSeconds: 0.001},
		{Bench: "emacs", Algo: "ht", Pts: "bitmap", WallSeconds: 1.0},
	}}
	newRep := &Report{SchemaVersion: ReportSchemaVersion, Runs: []Run{
		// 3x slower but both sides under the floor: not a regression.
		{Bench: "emacs", Algo: "lcd", Pts: "bitmap", WallSeconds: 0.003},
		// "ht" dropped entirely: must fail the gate.
		{Bench: "emacs", Algo: "pkh", Pts: "bitmap", WallSeconds: 1.0},
	}}
	diff := DiffReports(oldRep, newRep, DiffOptions{ThresholdPercent: 15, MinSeconds: 0.05})
	if diff.Regressions != 0 {
		t.Fatalf("noise-floor run flagged: %+v", diff)
	}
	if len(diff.MissingInNew) != 1 || diff.MissingInNew[0] != "emacs/ht/bitmap/w0" {
		t.Fatalf("missing run not detected: %+v", diff)
	}
	if len(diff.AddedInNew) != 1 || diff.AddedInNew[0] != "emacs/pkh/bitmap/w0" {
		t.Fatalf("added run not detected: %+v", diff)
	}
	if !diff.Failed() {
		t.Fatal("dropped run must fail the gate")
	}
}

// TestDiffServeLoadGate covers the serve-load comparison: p99 growth
// beyond the threshold and query errors in the new report each fail
// independently; benches measured on only one side are exempt, as are
// errored runs.
func TestDiffServeLoadGate(t *testing.T) {
	mkServe := func(bench string, p99 float64, errs int64) ServeLoadRun {
		return ServeLoadRun{Bench: bench, Readers: 64, QPS: 10000,
			QueryP50Seconds: p99 / 4, QueryP99Seconds: p99, Errors: errs}
	}
	oldRep := &Report{SchemaVersion: ReportSchemaVersion, ServeLoad: []ServeLoadRun{
		mkServe("emacs", 100e-6, 0),
		mkServe("wine", 200e-6, 0),
		mkServe("gimp", 100e-6, 0),
	}}
	newRep := &Report{SchemaVersion: ReportSchemaVersion, ServeLoad: []ServeLoadRun{
		mkServe("emacs", 300e-6, 0), // +200% p99
		mkServe("wine", 210e-6, 3),  // latency fine, but queries failed
		// gimp not measured this run: exempt, not a failure
		mkServe("insight", 1, 0), // no baseline: exempt
	}}
	diff := DiffReports(oldRep, newRep, DiffOptions{ServeThresholdPercent: 50})
	if diff.Regressions != 2 || !diff.Failed() {
		t.Fatalf("want 2 serve regressions, got %+v", diff)
	}
	why := map[string]string{}
	for _, e := range diff.ServeEntries {
		why[e.Key] = strings.Join(e.Why, ",")
	}
	if why["serve/emacs/r64"] != "query-p99" {
		t.Fatalf("emacs should trip the p99 gate, got %q", why["serve/emacs/r64"])
	}
	if why["serve/wine/r64"] != "query-errors" {
		t.Fatalf("wine should trip the error gate, got %q", why["serve/wine/r64"])
	}
	if len(diff.ServeEntries) != 2 {
		t.Fatalf("unmatched serve runs must be exempt: %+v", diff.ServeEntries)
	}
	// The error gate stays armed even with the latency threshold disabled.
	if d := DiffReports(oldRep, newRep, DiffOptions{}); d.Regressions != 1 {
		t.Fatalf("threshold 0 should still fail on errors, got %+v", d)
	}
	var buf bytes.Buffer
	diff.Print(&buf)
	if !strings.Contains(buf.String(), "serve run") || !strings.Contains(buf.String(), "REGRESSION query-p99") {
		t.Fatalf("serve section missing from diff output:\n%s", buf.String())
	}
}

func TestDiffOfflineGate(t *testing.T) {
	mkOffline := func(bench string, ovsAfter, fullAfter int) OfflineRun {
		return OfflineRun{Bench: bench, Before: 1000,
			OVSAfter: ovsAfter, HVNAfter: 900, HUAfter: 800, FullAfter: fullAfter}
	}
	oldRep := &Report{SchemaVersion: ReportSchemaVersion, Offline: []OfflineRun{
		mkOffline("emacs", 400, 240), // 40% extra reduction beyond ovs-only
		mkOffline("wine", 400, 240),
		mkOffline("gimp", 400, 240),
	}}
	newRep := &Report{SchemaVersion: ReportSchemaVersion, Offline: []OfflineRun{
		mkOffline("emacs", 400, 280), // extra reduction 40% -> 30%: -25% relative
		mkOffline("wine", 400, 230),  // improved: fine
		// gimp not measured this run: exempt, not a failure
		mkOffline("insight", 400, 240), // no baseline: exempt
	}}
	diff := DiffReports(oldRep, newRep, DiffOptions{OfflineThresholdPercent: 10})
	if diff.Regressions != 1 || !diff.Failed() {
		t.Fatalf("want 1 offline regression, got %+v", diff)
	}
	if len(diff.OfflineEntries) != 2 {
		t.Fatalf("unmatched offline runs must be exempt: %+v", diff.OfflineEntries)
	}
	for _, e := range diff.OfflineEntries {
		if e.Key == "offline/emacs" && (!e.Regression || e.Why[0] != "offline-reduction") {
			t.Fatalf("emacs should trip the offline gate: %+v", e)
		}
		if e.Key == "offline/wine" && e.Regression {
			t.Fatalf("wine improved and must pass: %+v", e)
		}
	}
	// Threshold 0 disables the gate entirely.
	if d := DiffReports(oldRep, newRep, DiffOptions{}); d.Regressions != 0 {
		t.Fatalf("threshold 0 should disable the offline gate, got %+v", d)
	}
	var buf bytes.Buffer
	diff.Print(&buf)
	if !strings.Contains(buf.String(), "offline run") || !strings.Contains(buf.String(), "REGRESSION offline-reduction") {
		t.Fatalf("offline section missing from diff output:\n%s", buf.String())
	}
}

// TestOfflineRunsLadder runs the real reduction ladder on a small
// workload and pins the monotonicity the report relies on: every pass
// shrinks (or holds) the constraint count, and the full stack is at
// least as small as OVS alone.
func TestOfflineRunsLadder(t *testing.T) {
	h := NewHarness(0.02)
	runs := h.OfflineRuns([]string{"emacs"})
	if len(runs) != 1 {
		t.Fatalf("want 1 offline run, got %d", len(runs))
	}
	r := runs[0]
	if r.Before <= 0 || r.HVNAfter > r.Before || r.HUAfter > r.HVNAfter || r.FullAfter > r.HUAfter {
		t.Fatalf("reduction ladder not monotone: %+v", r)
	}
	if r.FullAfter > r.OVSAfter {
		t.Fatalf("full stack must beat OVS-only: %+v", r)
	}
	if r.ExtraReductionPercent() <= 0 {
		t.Fatalf("HVN+HU should reduce beyond OVS-only on emacs: %+v", r)
	}
	var buf bytes.Buffer
	h.OfflineTable(&buf, []string{"emacs"})
	if !strings.Contains(buf.String(), "emacs") || !strings.Contains(buf.String(), "beyond ovs") {
		t.Fatalf("offline table missing content:\n%s", buf.String())
	}
}

// TestOfflineRoundTrip pins that the offline section survives the JSON
// round trip without bumping the schema (it is additive).
func TestOfflineRoundTrip(t *testing.T) {
	rep := &Report{SchemaVersion: ReportSchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
		Offline: []OfflineRun{{Bench: "emacs", Before: 100, OVSAfter: 40,
			HVNAfter: 80, HUAfter: 60, FullAfter: 30, HVNMergedVars: 7, HUMergedVars: 3}}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ovs_after"`) || !strings.Contains(buf.String(), `"hvn_merged_vars"`) {
		t.Fatalf("offline fields missing:\n%s", buf.String())
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Offline) != 1 || got.Offline[0].FullAfter != 30 || got.Offline[0].HUMergedVars != 3 {
		t.Fatalf("round trip lost offline: %+v", got.Offline)
	}
}

// TestServeLoadRoundTrip pins that the serve_load section survives the
// JSON round trip without bumping the schema (it is additive).
func TestServeLoadRoundTrip(t *testing.T) {
	rep := &Report{SchemaVersion: ReportSchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
		ServeLoad: []ServeLoadRun{{Bench: "emacs", Readers: 64, QPS: 5000,
			QueryP50Seconds: 1e-6, QueryP99Seconds: 9e-6, Updates: 4, Resumed: 4}}}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"query_p99_seconds"`) || !strings.Contains(buf.String(), `"qps"`) {
		t.Fatalf("serve_load fields missing:\n%s", buf.String())
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ServeLoad) != 1 || got.ServeLoad[0].QueryP99Seconds != 9e-6 || got.ServeLoad[0].Resumed != 4 {
		t.Fatalf("round trip lost serve_load: %+v", got.ServeLoad)
	}
}

// TestReadBaselineWithRetiredSections loads BENCH_10.json, a committed
// baseline that still carries the retired BSP-vs-async "async" section:
// it must parse, and diffing it against itself must match every run and
// pass every gate, so old baselines stay usable with benchdiff.
func TestReadBaselineWithRetiredSections(t *testing.T) {
	f, err := os.Open("../../BENCH_10.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 || len(rep.Memo) == 0 || len(rep.Offline) == 0 {
		t.Fatalf("baseline lost sections on read: %d runs, %d memo, %d offline",
			len(rep.Runs), len(rep.Memo), len(rep.Offline))
	}
	d := DiffReports(rep, rep, DiffOptions{ThresholdPercent: 75, MinSeconds: 0.05,
		AllocThresholdPercent: 25, MemThresholdPercent: 60, OfflineThresholdPercent: 10,
		GoThresholdPercent: 50, MemoThresholdPercent: 20})
	if len(d.Entries) != len(rep.Runs) {
		t.Fatalf("self-diff matched %d of %d runs", len(d.Entries), len(rep.Runs))
	}
	if d.Failed() {
		var buf bytes.Buffer
		d.Print(&buf)
		t.Fatalf("self-diff of BENCH_10.json failed:\n%s", buf.String())
	}
}
