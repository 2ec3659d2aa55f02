// Command perfbench is antgrass's benchmark: four workloads that measure
// the library end to end, from outside it, and layer by layer, by timing
// the benchmark's own calls into each layer's public functions. Every
// answer is checked against a reference digest. See README.md for the
// metrics, the workloads and what is left uncovered.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh gen-refs
//	bash perfbench/run.sh compare <result.json> <result.json>
//
// A run prints its fingerprint, then one JSON line with the keys correct,
// attempted, failed and metrics: the end-to-end metrics when untraced,
// the per-layer ones when traced. It also writes the full result, and a
// traced run's spans, under .bench_build/perfbench.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the library sees; every workload reports
// all of them in an untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"analysis_s", "s"},
	{"peak_heap_mb", "MB"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"query_qps", "1/s"},
}

// layerMetrics are reported by a traced run, 0 where the workload does
// not reach the layer. A "<layer>.<call>_s" metric is the self time of the
// benchmark's spans around that call.
var layerMetrics = []metricDef{
	{"synth.generate_s", "s"},
	{"gogen.compile_s", "s"},
	{"gogen.constraints", "count"},
	{"hvn.hvn_s", "s"},
	{"hvn.hu_s", "s"},
	{"hvn.after", "count"},
	{"ovs.reduce_s", "s"},
	{"ovs.after", "count"},
	{"hcd.analyze_s", "s"},
	{"hcd.pairs", "count"},
	{"core.solve_s", "s"},
	{"core.build_s", "s"},
	{"core.propagate_s", "s"},
	{"core.cycledetect_s", "s"},
	{"core.propagations", "count"},
	{"core.edges_added", "count"},
	{"core.nodes_searched", "count"},
	{"core.cycle_checks", "count"},
	{"core.nodes_collapsed", "count"},
	{"core.collapses_per_check", "ratio"},
	{"core.alloc_mb", "MB"},
	{"core.mem_bytes", "bytes"},
	{"par.compute_s", "s"},
	{"par.merge_s", "s"},
	{"par.merge_share", "ratio"},
	{"par.rounds", "count"},
	{"par.steals", "count"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"memo.hit_rate", "ratio"},
	{"memo.bytes", "bytes"},
	{"pts.pool_element_gets", "count"},
	{"pts.recycle_rate", "ratio"},
	{"pts.cow_shares", "count"},
	{"pts.cow_clones", "count"},
	{"session.new_s", "s"},
	{"session.update_s", "s"},
	{"session.update_p50_ms", "ms"},
	{"session.update_p90_ms", "ms"},
	{"session.update_lag_ms", "ms"},
	{"session.resume_ratio", "ratio"},
	{"snapshot.pointsto_ns", "ns"},
	{"snapshot.alias_ns", "ns"},
	{"snapshot.answer_len_mean", "count"},
	{"clients.callgraph_s", "s"},
	{"clients.call_edges", "count"},
	{"clients.modref_s", "s"},
	{"verify.solution_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
}

// spanMetrics maps span names to the per-layer metric carrying their
// summed self time. The "analysis" root's self time is the part of the
// traced analysis that no layer's span covers.
var spanMetrics = map[string]string{
	"synth.generate":    "synth.generate_s",
	"gogen.compile":     "gogen.compile_s",
	"hvn.hvn":           "hvn.hvn_s",
	"hvn.hu":            "hvn.hu_s",
	"ovs.reduce":        "ovs.reduce_s",
	"hcd.analyze":       "hcd.analyze_s",
	"core.solve":        "core.solve_s",
	"session.new":       "session.new_s",
	"clients.callgraph": "clients.callgraph_s",
	"clients.modref":    "clients.modref_s",
	"verify.solution":   "verify.solution_s",
	"analysis":          "trace.unattributed_s",
}

// fingerprint identifies what a result was measured on. Results are
// comparable only when their fingerprints are equal; the seed is recorded
// beside it, since runs over different seeds are what a median pools.
type fingerprint struct {
	Workload   string           `json:"workload"`
	Options    effectiveOptions `json:"options"`
	RunSeconds int              `json:"run_seconds"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Platform   string           `json:"platform"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the result file a run writes.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	summary
	Failures []string `json:"failures,omitempty"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root; results go under <root>/.bench_build/perfbench")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Int("seconds", 15, "how long the run measures")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch fs.Arg(0) {
	case "gen-refs":
		return genRefs(*root, stderr)
	case "compare":
		if fs.NArg() != 3 {
			return errors.New("compare takes two result files")
		}
		return compare(fs.Arg(1), fs.Arg(2), stdout)
	case "":
	default:
		return fmt.Errorf("unknown command %q", fs.Arg(0))
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	refs, err := storedRefs()
	if err != nil {
		return err
	}
	fp := fingerprint{
		Workload:   w.name,
		Options:    effective(w.opts),
		RunSeconds: *seconds,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	fpJSON, _ := json.Marshal(fp) // plain fields only: cannot fail
	fmt.Fprintf(stdout, "fingerprint %s seed=%d\n", fpJSON, *seed)

	// Every stage has its own deadline; this one bounds the whole run.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	c := &config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, refs: refs, log: stderr}
	o, err := c.run(ctx)
	if err != nil {
		return err
	}
	rec := record{Fingerprint: fp, Seed: *seed, Trace: c.trace, Failures: o.t.reasons}
	rec.summary = summarize(o, c.trace)
	out := filepath.Join(*root, ".bench_build", "perfbench")
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if c.trace {
		if err := o.tr.write(filepath.Join(out, "spans", base+".json")); err != nil {
			return err
		}
	}
	if err := writeJSON(filepath.Join(out, "results", base+".json"), rec); err != nil {
		return err
	}
	for _, r := range o.t.reasons {
		fmt.Fprintln(stderr, "perfbench: failed:", r)
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// summarize turns an outcome into the reported metrics: the end-to-end
// set, or for a traced run the per-layer set with span self times added.
func summarize(o *outcome, trace bool) summary {
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
		for name, self := range o.tr.selfByName() {
			if m, ok := spanMetrics[name]; ok {
				o.metrics[m] += self
			}
		}
	}
	s := summary{
		Correct:   o.t.failed == 0 && o.t.attempted > 0,
		Attempted: max(o.t.attempted, 1),
		Failed:    o.t.failed,
		Metrics:   map[string]metricValue{},
	}
	if o.t.attempted == 0 {
		s.Failed = 1
	}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	return s
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints two results' metrics side by side. It refuses results
// whose fingerprints differ: a workload, options, run length, CPU count,
// GOMAXPROCS or toolchain apart, their numbers do not measure the same
// thing.
func compare(pathA, pathB string, w io.Writer) error {
	var recs [2]record
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if recs[0].Fingerprint != recs[1].Fingerprint {
		a, _ := json.Marshal(recs[0].Fingerprint) // plain fields only: cannot fail
		b, _ := json.Marshal(recs[1].Fingerprint)
		return fmt.Errorf("fingerprints differ, refusing to compare:\n  %s\n  %s", a, b)
	}
	names := make([]string, 0, len(recs[0].Metrics))
	for n := range recs[0].Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %14s %14s %8s\n", "metric", "A", "B", "B/A")
	for _, n := range names {
		a, b := recs[0].Metrics[n], recs[1].Metrics[n]
		ratio := "-"
		if a.Value != 0 {
			ratio = fmt.Sprintf("%.3f", b.Value/a.Value)
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %8s %s\n", n, a.Value, b.Value, ratio, a.Unit)
	}
	return nil
}

// genRefs regenerates refs.json: for every workload, the solution digest
// its reference families agree on, plus oracle.Reference where it
// finishes, and go-std's client digests for this toolchain.
func genRefs(root string, log io.Writer) error {
	ctx := context.Background()
	refs := map[string]reference{}
	for _, w := range workloads {
		start := time.Now()
		in, err := buildInput(nil, w, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ref, err := generate(ctx, w, in, true)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if w.oracle {
			if err := ref.agree(oracleFamily, oracleDigest(in.prog)); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		refs[w.name] = ref
		fmt.Fprintf(log, "perfbench gen-refs: %s agreed by %v in %.1fs\n", w.name, ref.Families, time.Since(start).Seconds())
	}
	return writeRefs(root, refs)
}
