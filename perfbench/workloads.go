package main

import (
	"context"
	"fmt"
	"math/rand"

	"antgrass"
	"antgrass/internal/bench"
	"antgrass/internal/core"
	"antgrass/internal/hcd"
	"antgrass/internal/hvn"
	"antgrass/internal/metrics"
	"antgrass/internal/ovs"
)

// workload is one input and configuration the benchmark runs.
type workload struct {
	name string
	// profile is the synthetic Table 2 profile the input is generated
	// from at scale 1.0; empty for go-std, whose input is real Go source.
	profile string
	// goStd compiles bench.StdlibPackages with the Go front end and runs
	// the call-graph and mod/ref clients on the result.
	goStd bool
	// serve holds the program in a Session and edits it while a reader
	// queries it, instead of solving it once.
	serve bool
	opts  antgrass.Options
	// fams are the solver families whose agreement makes a reference;
	// oracle adds oracle.Reference when refs.json is regenerated.
	fams   []family
	oracle bool
}

// workloads are the benchmark's inputs; README.md gives the reason for
// each.
var workloads = []*workload{
	{
		name:    "paper-raw",
		profile: "ghostscript",
		opts:    antgrass.Options{Algorithm: antgrass.LCD, HCD: true},
		fams:    []family{famLCD, famHT},
	},
	{
		name:    "paper-reduced",
		profile: "linux",
		opts:    antgrass.Options{Algorithm: antgrass.LCD, HCD: true, HVN: true, HU: true, OVS: true, Memo: true, Workers: 2},
		fams:    []family{famLCDAsync, famHT},
	},
	{
		name:    "serve-edit",
		profile: "emacs",
		serve:   true,
		opts:    antgrass.Options{Algorithm: antgrass.LCD, HCD: true},
		fams:    []family{famLCD, famHT},
		oracle:  true,
	},
	{
		name:   "go-std",
		goStd:  true,
		opts:   antgrass.Options{Algorithm: antgrass.LCD, HCD: true, HVN: true, HU: true, OVS: true},
		fams:   []family{famLCD, famHT},
		oracle: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// effectiveOptions is the Options record a result carries: every field
// that selects what runs, with the library's defaults filled in.
type effectiveOptions struct {
	Algorithm string `json:"algorithm"`
	Pts       string `json:"pts"`
	HCD       bool   `json:"hcd"`
	HVN       bool   `json:"hvn"`
	HU        bool   `json:"hu"`
	OVS       bool   `json:"ovs"`
	DiffProp  bool   `json:"diff_prop"`
	Workers   int    `json:"workers"`
	Async     bool   `json:"async"`
	Memo      bool   `json:"memo"`
}

func effective(o antgrass.Options) effectiveOptions {
	e := effectiveOptions{
		Algorithm: string(o.Algorithm), Pts: string(o.Pts),
		HCD: o.HCD, HVN: o.HVN, HU: o.HU, OVS: o.OVS,
		DiffProp: o.DiffProp, Workers: o.Workers, Async: o.Async, Memo: o.Memo,
	}
	if e.Algorithm == "" {
		e.Algorithm = string(antgrass.LCD)
	}
	if e.Pts == "" {
		e.Pts = string(antgrass.Bitmap)
	}
	return e
}

// synthInput generates the workload's profile at scale 1.0 and permutes
// its constraint order by seed. The profile itself stays the catalog's
// pinned program: re-sampling it per seed moves solve time by ±20%
// (ghostscript on a 2-vCPU VM: 7.0, 8.7 and 9.8 s for three seeds), more
// than any bound, while the order permutation changes the input file but
// not its answer.
func synthInput(tr *tracer, profile string, seed int64) (*antgrass.Program, error) {
	var (
		p   *antgrass.Program
		err error
	)
	tr.do("synth.generate", func() { p, err = antgrass.Workload(profile, 1.0) })
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(p.Constraints), func(i, j int) {
		p.Constraints[i], p.Constraints[j] = p.Constraints[j], p.Constraints[i]
	})
	return p, nil
}

// compileStd runs the Go front end on the pinned standard-library set.
func compileStd(tr *tracer) (*antgrass.Unit, error) {
	var (
		u   *antgrass.Unit
		err error
	)
	tr.do("gogen.compile", func() { u, err = antgrass.CompileGo(antgrass.GoOptions{Packages: bench.StdlibPackages}) })
	return u, err
}

// buildInput makes a batch workload's input: the permuted synthetic
// program, or the compiled standard-library unit. tr spans the synthetic
// generator only; go-std's traced compile is part of its analysis.
func buildInput(tr *tracer, w *workload, seed int64) (batchInput, error) {
	if w.goStd {
		u, err := compileStd(nil)
		if err != nil {
			return batchInput{}, err
		}
		return batchInput{prog: u.Prog, unit: u}, nil
	}
	p, err := synthInput(tr, w.profile, seed)
	return batchInput{prog: p}, err
}

// offlineCounts are the offline passes' results a traced run reports.
type offlineCounts struct {
	hvnAfter, ovsAfter, hcdPairs int
	coreAllocBytes               uint64
}

// pipeline runs the library's solve pipeline one public call at a time,
// in the order antgrass.Solve runs it — HVN, then HU, then OVS, each on
// the previous pass's output, then the HCD offline pass, then the core
// solver with every pass's pre-unions — so that each call gets its own
// span. The benchmark's tests pin its answer to Solve's.
func pipeline(ctx context.Context, tr *tracer, p *antgrass.Program, o antgrass.Options, reg *metrics.Registry, oc *offlineCounts) (*core.Result, error) {
	if o.Algorithm != antgrass.LCD || (o.Pts != "" && o.Pts != antgrass.Bitmap) {
		return nil, fmt.Errorf("traced pipeline covers LCD over bitmaps, not %s/%s", o.Algorithm, o.Pts)
	}
	var pre [][2]uint32
	for _, pass := range []struct {
		on   bool
		name string
		hu   bool
	}{{o.HVN, "hvn.hvn", false}, {o.HU, "hvn.hu", true}} {
		if !pass.on {
			continue
		}
		var red *hvn.Result
		tr.do(pass.name, func() { red = hvn.Reduce(p, pass.hu) })
		oc.hvnAfter = red.After
		p, pre = red.Reduced, append(pre, red.PreUnions...)
	}
	if o.OVS {
		var red *ovs.Result
		tr.do("ovs.reduce", func() { red = ovs.Reduce(p) })
		oc.ovsAfter = red.After
		p, pre = red.Reduced, append(pre, red.PreUnions...)
	}
	copts := core.Options{
		Algorithm: core.LCD,
		DiffProp:  o.DiffProp,
		Workers:   o.Workers,
		Async:     o.Async,
		Memo:      o.Memo,
		Metrics:   reg,
	}
	if o.HCD || len(pre) > 0 {
		table := &hcd.Result{}
		if o.HCD {
			tr.do("hcd.analyze", func() { table = hcd.Analyze(p) })
			oc.hcdPairs = len(table.Pairs)
		}
		table.PreUnions = append(table.PreUnions, pre...)
		copts.WithHCD, copts.HCDTable = true, table
	}
	var (
		res *core.Result
		err error
	)
	before := allocBytes()
	tr.do("core.solve", func() { res, err = core.SolveContext(ctx, p, copts) })
	oc.coreAllocBytes = allocBytes() - before
	return res, err
}

// makeDeltas builds n monotone edits of a program with numVars
// variables: each adds one fresh variable wired to random existing ones,
// so every edit can resume the warm fixpoint in place. The edits are drawn
// once, from a fixed seed, and the run's seed permutes their order. The
// final program is then the same up to the fresh variables' ids, and so is
// the size of the final solution: edits drawn per seed grow it by a
// different amount each time, and the heap and read costs with it.
func makeDeltas(seed int64, numVars, n int) []antgrass.Delta {
	type edit struct {
		addr, into, from, other antgrass.VarID
		load                    bool
	}
	draw := rand.New(rand.NewSource(1))
	rv := func() antgrass.VarID { return antgrass.VarID(draw.Intn(numVars)) }
	edits := make([]edit, n)
	for i := range edits {
		edits[i] = edit{addr: rv(), into: rv(), from: rv(), other: rv(), load: draw.Intn(2) == 0}
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { edits[i], edits[j] = edits[j], edits[i] })
	out := make([]antgrass.Delta, n)
	for i, e := range edits {
		fresh := antgrass.VarID(numVars + i)
		d := antgrass.Delta{
			AddVars: []string{fmt.Sprintf("edit$v%d", i)},
			Add: []antgrass.Constraint{
				antgrass.AddrOfConstraint(fresh, e.addr),
				antgrass.CopyConstraint(e.into, fresh),
				antgrass.CopyConstraint(fresh, e.from),
			},
		}
		if e.load {
			d.Add = append(d.Add, antgrass.LoadConstraint(e.other, fresh, 0))
		} else {
			d.Add = append(d.Add, antgrass.StoreConstraint(fresh, e.other, 0))
		}
		out[i] = d
	}
	return out
}

// applyDeltas returns a copy of p with ds applied the way Session.Update
// applies monotone deltas.
func applyDeltas(p *antgrass.Program, ds []antgrass.Delta) *antgrass.Program {
	q := p.Clone()
	for _, d := range ds {
		for _, name := range d.AddVars {
			q.AddVar(name)
		}
		q.Constraints = append(q.Constraints, d.Add...)
	}
	return q
}
