// Tests of the concurrent loader: lockstep against the sequential
// reference loader (refload_test.go), determinism across GOMAXPROCS, and
// the cleaning of the target list. They live in the external test package
// so they can use bench.StdlibPackages (internal/bench imports the
// antgrass facade, which imports this package).
package gogen_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"antgrass/internal/bench"
	"antgrass/internal/cgen"
	"antgrass/internal/gogen"
)

// renderUnit renders everything a Unit carries, in its own order: the
// variables with their spans, the constraints, the name tables, the call
// and dereference sites and the warnings (sorted when sortWarnings is set).
func renderUnit(u *cgen.Unit, sortWarnings bool) string {
	var b strings.Builder
	p := u.Prog
	for v := 0; v < p.NumVars; v++ {
		span := uint32(1)
		if len(p.Span) > 0 {
			span = p.Span[v]
		}
		fmt.Fprintf(&b, "var %d %s %d\n", v, p.NameOf(uint32(v)), span)
	}
	for _, c := range p.Constraints {
		fmt.Fprintf(&b, "%s %d %d %d\n", c.Kind, c.Dst, c.Src, c.Offset)
	}
	for _, table := range []map[string]uint32{u.Funcs, u.Globals, u.Locals} {
		names := make([]string, 0, len(table))
		for name := range table {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(&b, "name %s %d\n", name, table[name])
		}
	}
	for _, s := range u.CallSites {
		fmt.Fprintf(&b, "call %+v\n", s)
	}
	for _, s := range u.DerefSites {
		fmt.Fprintf(&b, "deref %+v\n", s)
	}
	warns := slices.Clone(u.Warnings)
	if sortWarnings {
		slices.Sort(warns)
	}
	for _, w := range warns {
		fmt.Fprintf(&b, "warning %s\n", w)
	}
	return b.String()
}

// loadDeadline bounds one compile in these tests: a loader that deadlocks
// fails its test instead of hanging it.
const loadDeadline = 5 * time.Minute

type compileResult struct {
	u   *cgen.Unit
	err error
}

func compileWithin(t *testing.T, compile func() (*cgen.Unit, error)) (*cgen.Unit, error) {
	t.Helper()
	ch := make(chan compileResult, 1)
	go func() {
		u, err := compile()
		ch <- compileResult{u, err}
	}()
	select {
	case r := <-ch:
		return r.u, r.err
	case <-time.After(loadDeadline):
		t.Fatalf("compile did not finish within %v (deadlock?)", loadDeadline)
		return nil, nil
	}
}

// checkLockstep compiles o with both loaders and requires the same Unit
// (warnings compared as sorted lists) or the same error text.
func checkLockstep(t *testing.T, o gogen.Options) *cgen.Unit {
	t.Helper()
	want, wantErr := compileWithin(t, func() (*cgen.Unit, error) { return gogen.CompileSequential(o) })
	got, gotErr := compileWithin(t, func() (*cgen.Unit, error) { return gogen.Compile(o) })
	if wantErr != nil || gotErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error differs:\n got: %v\nwant: %v", gotErr, wantErr)
		}
		t.Logf("error: %v", gotErr)
		return nil
	}
	if g, w := renderUnit(got, true), renderUnit(want, true); g != w {
		t.Fatalf("unit differs from the sequential loader's:\n%s", firstDiff(g, w))
	}
	t.Logf("%d constraints, warnings %q", len(got.Prog.Constraints), got.Warnings)
	return got
}

// firstDiff shows the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d (of %d vs %d):\n got: %s\nwant: %s", i+1, len(g), len(w), gl, wl)
		}
	}
	return "identical"
}

// writeModule lays out a module "fix" in a temporary directory: files maps
// slash paths relative to the module root to their contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fix\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadLockstepStdlib(t *testing.T) {
	u := checkLockstep(t, gogen.Options{Packages: bench.StdlibPackages})
	if u == nil || len(u.Prog.Constraints) == 0 {
		t.Fatal("the standard-library set generated no constraints")
	}
}

func TestLoadLockstepModule(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole repository four times")
	}
	for _, tests := range []bool{false, true} {
		t.Run(fmt.Sprintf("tests=%v", tests), func(t *testing.T) {
			u := checkLockstep(t, gogen.Options{Dir: "../..", IncludeTests: tests})
			cycles := 0
			for _, w := range u.Warnings {
				if strings.Contains(w, "import cycle through") {
					cycles++
				}
			}
			// In-package tests import packages that import the package
			// under test; without tests the module is a DAG.
			if tests != (cycles > 0) {
				t.Errorf("IncludeTests=%v: %d import-cycle warnings", tests, cycles)
			}
		})
	}
}

func TestLoadLockstepFixtures(t *testing.T) {
	cycle := map[string]string{
		"a/a.go": "package a\n\nimport \"fix/b\"\n\nvar P *int\n\nfunc F() *int { return b.Q }\n",
		"b/b.go": "package b\n\nimport \"fix/a\"\n\nvar Q = a.P\n\nfunc G() *int { return a.F() }\n",
		"c/c.go": "package c\n\nimport (\n\t\"fix/b\"\n\t\"fix/a\"\n)\n\nvar R = a.F() == b.G()\n",
	}
	testCycle := map[string]string{
		"a/a.go":      "package a\n\nvar P *int\n\nfunc F() *int { return P }\n",
		"a/a_test.go": "package a\n\nimport \"fix/b\"\n\nfunc T() *int { return b.Q }\n",
		"b/b.go":      "package b\n\nimport \"fix/a\"\n\nvar Q = a.F()\n",
	}
	// b fails to parse; its own import of c would close a cycle back to
	// a if anyone followed it.
	parseErr := map[string]string{
		"a/a.go": "package a\n\nimport \"fix/b\"\n\nvar P = b.Q\n",
		"b/b.go": "package b\n\nimport \"fix/c\"\n\nvar Q = c.R\n\nfunc broken() { return ) }\n",
		"c/c.go": "package c\n\nimport \"fix/a\"\n\nvar R *int\n\nvar _ = a.P\n",
		"d/d.go": "package d\n\nfunc broken( {}\n",
	}
	unresolvable := map[string]string{
		"a/a.go": "package a\n\nimport (\n\t\"fix/missing\"\n\t\"strings\"\n)\n\nvar P = missing.Q\n\nvar S = strings.ToUpper\n",
		"b/b.go": "package b\n\nimport \"fix/missing\"\n\nvar P = missing.Q\n",
	}
	cases := []struct {
		name  string
		files map[string]string
		opts  gogen.Options // Dir is filled in
	}{
		{"cycle", cycle, gogen.Options{}},
		{"cycle-from-b", cycle, gogen.Options{Packages: []string{"fix/b"}}},
		{"cycle-from-c", cycle, gogen.Options{Packages: []string{"fix/c"}}},
		{"test-cycle", testCycle, gogen.Options{}},
		{"test-cycle-tests", testCycle, gogen.Options{IncludeTests: true}},
		{"parse-error-dep", parseErr, gogen.Options{Packages: []string{"fix/a"}}},
		{"parse-error-dep-of-c", parseErr, gogen.Options{Packages: []string{"fix/c"}}},
		{"parse-error-targets", parseErr, gogen.Options{}},
		{"unresolvable", unresolvable, gogen.Options{Packages: []string{"fix/a", "fix/b"}}},
		{"unresolvable-target", unresolvable, gogen.Options{Packages: []string{"fix/a", "fix/missing"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.Dir = writeModule(t, maps.Clone(tc.files))
			checkLockstep(t, o)
		})
	}
}

// TestLoadLockstepSource runs CompileSource's single-file root through
// both loaders.
func TestLoadLockstepSource(t *testing.T) {
	const src = `package p

import (
	"strings"
	"unsafe"
	"fmt"
)

var sink []string

func f(p *int) unsafe.Pointer {
	sink = strings.Fields(fmt.Sprint(p))
	return unsafe.Pointer(p)
}
`
	want, wantErr := compileWithin(t, func() (*cgen.Unit, error) { return gogen.CompileSourceSequential(src) })
	got, gotErr := compileWithin(t, func() (*cgen.Unit, error) { return gogen.CompileSource(src) })
	if wantErr != nil || gotErr != nil {
		t.Fatalf("errors: got %v, want %v", gotErr, wantErr)
	}
	if g, w := renderUnit(got, true), renderUnit(want, true); g != w {
		t.Fatalf("unit differs from the sequential loader's:\n%s", firstDiff(g, w))
	}
}

// TestCompileDeterministic compiles the pinned standard-library set twice
// at each of GOMAXPROCS 1, 2 and 4 and requires every rendering, warning
// order included, to be identical.
func TestCompileDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the standard-library set six times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			u, err := compileWithin(t, func() (*cgen.Unit, error) {
				return gogen.Compile(gogen.Options{Packages: bench.StdlibPackages})
			})
			if err != nil {
				t.Fatal(err)
			}
			got := renderUnit(u, false)
			if first == "" {
				first = got
			} else if got != first {
				t.Fatalf("GOMAXPROCS=%d run %d differs from the first compile:\n%s", procs, run, firstDiff(got, first))
			}
		}
	}
}

// TestCompileDeterministicWarnings pins the warning order on an input
// that has warnings from several packages: packages in the order the
// import walk finishes them, each package's in go/types' report order.
func TestCompileDeterministicWarnings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": "package a\n\nimport (\n\t\"fix/b\"\n\t\"fix/c\"\n)\n\nvar X int = \"a\"\n\nvar _, _ = b.Y, c.Z\n",
		"b/b.go": "package b\n\nimport \"fix/c\"\n\nvar Y int = \"b\"\n\nvar _ = c.Z\n",
		"c/c.go": "package c\n\nimport \"fix/a\"\n\nvar Z int = \"c\"\n\nvar _ = a.X\n",
	})
	want := []string{
		`c.go:3:8: could not import fix/a (gogen: import cycle through "fix/a")`,
		`c.go:5:13: cannot use "c"`,
		`b.go:5:13: cannot use "b"`,
		`a.go:8:13: cannot use "a"`,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		u, err := compileWithin(t, func() (*cgen.Unit, error) { return gogen.Compile(gogen.Options{Dir: dir}) })
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Warnings) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d warnings, want %d: %q", procs, len(u.Warnings), len(want), u.Warnings)
		}
		for i, w := range want {
			if !strings.Contains(u.Warnings[i], w) {
				t.Errorf("GOMAXPROCS=%d: warning %d = %q, want it to contain %q", procs, i, u.Warnings[i], w)
			}
		}
	}
}

// TestTargetPathsDeduplicated pins that a repeated target is generated
// once: the same Unit as naming it once.
func TestTargetPathsDeduplicated(t *testing.T) {
	once, err := gogen.Compile(gogen.Options{Packages: []string{"errors"}})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := gogen.Compile(gogen.Options{Packages: []string{"errors", "errors"}})
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderUnit(twice, false), renderUnit(once, false); g != w {
		t.Fatalf("errors listed twice differs from once (%d vs %d constraints, %d vs %d call sites):\n%s",
			len(twice.Prog.Constraints), len(once.Prog.Constraints), len(twice.CallSites), len(once.CallSites), firstDiff(g, w))
	}
}

// TestTargetPathsTrimmed pins that blanks around a target and empty
// entries are ignored, as a hand-typed "-pkg 'errors, unicode/utf8,'"
// produces them.
func TestTargetPathsTrimmed(t *testing.T) {
	clean, err := gogen.Compile(gogen.Options{Packages: []string{"errors", "unicode/utf8"}})
	if err != nil {
		t.Fatal(err)
	}
	typed, err := gogen.Compile(gogen.Options{Packages: strings.Split("errors, unicode/utf8,", ",")})
	if err != nil {
		t.Fatalf("a list with blanks and an empty entry: %v", err)
	}
	if g, w := renderUnit(typed, false), renderUnit(clean, false); g != w {
		t.Fatalf("trimmed list differs:\n%s", firstDiff(g, w))
	}
	if _, err := gogen.Compile(gogen.Options{Packages: []string{" ", ""}}); err == nil ||
		!strings.Contains(err.Error(), "no packages to analyze") {
		t.Fatalf("a list of blanks: err = %v, want no packages to analyze", err)
	}
}

// BenchmarkCompile times the front end on the pinned standard-library
// set; run it with -cpu 1,2 to see the loader's sequential overhead and
// its parallel gain.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, err := gogen.Compile(gogen.Options{Packages: bench.StdlibPackages})
		if err != nil {
			b.Fatal(err)
		}
		compiled = u
	}
}

// compiled keeps BenchmarkCompile's result live.
var compiled *cgen.Unit
