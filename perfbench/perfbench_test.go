package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"antgrass"
	"antgrass/internal/metrics"
)

// unattributedTolerance is the largest share of a traced analysis that
// may fall outside every layer's span.
const unattributedTolerance = 0.05

func smallProgram(t *testing.T, profile string) *antgrass.Program {
	t.Helper()
	p, err := antgrass.Workload(profile, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The traced pipeline composes the layers by hand; its answer must stay
// the facade's, for every workload's options.
func TestTracedPipelineMatchesSolve(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		for _, profile := range []string{"emacs", "ghostscript", "linux"} {
			p := smallProgram(t, profile)
			res, err := antgrass.Solve(ctx, p, w.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := digestSolution(snapshotSolution{res.Snapshot()})

			tr := newTracer("test")
			var oc offlineCounts
			var got string
			tr.do("analysis", func() {
				cres, err := pipeline(ctx, tr, p, w.opts, metrics.New(), &oc)
				if err != nil {
					t.Fatal(err)
				}
				got = digestSolution(coreSolution{cres, p.NumVars})
			})
			if got != want {
				t.Errorf("%s on %s: traced pipeline digest %.12s, Solve gives %.12s", w.name, profile, got, want)
			}
			checkSelfTimes(t, tr, w.name+"/"+profile)
		}
	}
}

// checkSelfTimes asserts that the self times under the "analysis" root
// add up to its wall time, and that the layers' spans cover all but
// unattributedTolerance of it.
func checkSelfTimes(t *testing.T, tr *tracer, label string) {
	t.Helper()
	root := tr.last("analysis")
	wall := tr.spans[root].seconds()
	self := tr.selfSeconds()
	sum := 0.0
	for _, id := range subtree(tr, root) {
		sum += self[id]
	}
	if math.Abs(sum-wall) > 1e-9*math.Max(wall, 1) {
		t.Errorf("%s: self times sum to %gs, traced wall time is %gs", label, sum, wall)
	}
	if share := self[root] / wall; share > unattributedTolerance {
		t.Errorf("%s: %.1f%% of the traced analysis is outside every layer span (tolerance %.0f%%)", label, 100*share, 100*unattributedTolerance)
	}
}

// A wrong reference digest and an expired deadline each count as a
// failed analysis.
func TestFailureAccounting(t *testing.T) {
	ctx := context.Background()
	w, err := workloadByName("paper-raw")
	if err != nil {
		t.Fatal(err)
	}
	c := &config{w: w}
	in := batchInput{prog: smallProgram(t, "emacs")}
	good, _, err := makeReference(ctx, in.prog, w.fams)
	if err != nil {
		t.Fatal(err)
	}
	wrong := good
	wrong.Solution = strings.Repeat("0", len(good.Solution))

	var tl tally
	if _, _, _, ok := c.attempt(ctx, &tl, in, good, time.Minute); !ok || tl.failed != 0 {
		t.Fatalf("a correct analysis failed: %v", tl.reasons)
	}
	if _, _, _, ok := c.attempt(ctx, &tl, in, wrong, time.Minute); ok {
		t.Error("an answer that differs from its reference digest was accepted")
	}
	if _, _, _, ok := c.attempt(ctx, &tl, in, good, time.Nanosecond); ok {
		t.Error("an analysis past its deadline was accepted")
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 3 and 2 (%v)", tl.attempted, tl.failed, tl.reasons)
	}

	// A query answer outside the checked solution counts too.
	res, err := antgrass.Solve(ctx, in.prog, w.opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Snapshot()
	var v antgrass.VarID
	for snap.PointsToLen(v) == 0 {
		v++
	}
	st := &queryStats{n: 2, answers: []answered{
		{q: query{a: v}, set: snap.PointsTo(v)},
		{q: query{a: v}, set: nil},
	}}
	tl = tally{}
	checkAnswers(&tl, st, snap.PointsTo, snap.PointsTo)
	if tl.attempted != 2 || tl.failed != 1 {
		t.Errorf("queries: attempted %d, failed %d; want 2 and 1", tl.attempted, tl.failed)
	}
	late := func(context.Context) error { time.Sleep(time.Millisecond); return nil }
	if _, err := withDeadline(ctx, time.Nanosecond, late); !errors.Is(err, errDeadline) {
		t.Error("a call that returned after its deadline was not reported as late")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark reports, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, e2eMetrics}, {spec.PerLayer, layerMetrics}} {
		if len(set.spec) != len(set.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(set.spec), len(set.code))
		}
		for i, m := range set.spec {
			if m.Name != set.code[i].name || m.Unit != set.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], the benchmark %s [%s]", i, m.Name, m.Unit, set.code[i].name, set.code[i].unit)
			}
		}
	}
	layer := map[string]bool{}
	for _, m := range layerMetrics {
		layer[m.name] = true
	}
	for span, m := range spanMetrics {
		if !layer[m] {
			t.Errorf("span %s reports into %s, which is not a per-layer metric", span, m)
		}
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	a := record{Fingerprint: fingerprint{Workload: "paper-raw", NumCPU: 2, GoVersion: "go1.24.0"}}
	b := a
	b.Fingerprint.NumCPU = 8
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for p, r := range map[string]record{pa: a, pb: b} {
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := compare(pa, pa, &out); err != nil {
		t.Errorf("comparing a result with itself: %v", err)
	}
	if err := compare(pa, pb, &out); err == nil {
		t.Error("results from hosts with different CPU counts were compared")
	}
}

// subtree returns the ids of root and every span below it.
func subtree(t *tracer, root int) []int {
	ids := []int{root}
	for i := root + 1; i < len(t.spans); i++ {
		for p := t.spans[i].Parent; p >= root; p = t.spans[p].Parent {
			if p == root {
				ids = append(ids, i)
				break
			}
		}
	}
	return ids
}
