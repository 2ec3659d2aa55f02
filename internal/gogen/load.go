// Package gogen is the real-workload front end: it generates inclusion
// constraints for Go source using only the standard library's go/ast,
// go/build and go/types (no x/tools), so every Go module — including this
// repository and the Go standard library — becomes an analysis input for
// the solver pipeline. The constraint model is field-insensitive v1 and is
// specified, rule by rule, in docs/GOFRONTEND.md; the generator and the
// spec are kept in lockstep by the golden tests in this package.
//
// The output is the same interchange the C front end (internal/cgen)
// emits: a constraint.Program plus a cgen.Unit with name tables, call
// sites and dereference sites, so the existing clients (CallGraph,
// ComputeModRef), the offline passes (HVN/HU/OVS/HCD), every solver, the
// parallel engine and the Session daemon all run unchanged.
package gogen

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Options configures the Go front end.
type Options struct {
	// Dir is a module root directory (a go.mod defines the module path).
	// With Dir set and Packages nil, every package under the module is
	// analyzed; with Packages set, only those module-internal or standard
	// library import paths are.
	Dir string
	// Packages lists import paths to analyze. Standard-library paths
	// resolve under GOROOT/src; with Dir set, paths under the module
	// path resolve inside the module. Blanks around a path are trimmed,
	// empty entries are ignored and a repeated path is analyzed once.
	// Ignored fields of the build context (tags, cgo) follow defaults:
	// cgo is disabled so the pure-Go fallbacks of cgo packages are
	// selected.
	Packages []string
	// IncludeTests, when set, also analyzes in-package _test.go files of
	// the target packages (external _test packages are not loaded).
	IncludeTests bool
}

// loadedPackage is one package of the import graph. Discovery fills in
// its files and the imports the type checker will ask for, ordering fills
// in which of those imports wait and which are cycle cuts, and building
// typechecks it.
type loadedPackage struct {
	path   string
	target bool
	files  []*ast.File
	// err says why the package cannot be loaded (unresolvable path,
	// unreadable directory, parse error); importers see it as the import's
	// error.
	err error
	// imports lists the import paths the type checker asks for, in the
	// order it asks: files in order, specs in source order, each path once.
	imports []string
	// deps are the imported packages this one waits for; cut holds the
	// imports answered with an import-cycle error instead.
	deps  []*loadedPackage
	cut   map[string]bool
	state int // DFS color during ordering
	done  chan struct{}

	pkg   *types.Package
	info  *types.Info // full type information; targets only
	warns []string    // this package's typecheck errors, in report order
}

// loader parses and typechecks packages from source in three stages (see
// docs/GOFRONTEND.md "Loading"): discover the import graph from the roots,
// parsing every file concurrently; order it by one depth-first walk that
// reproduces the sequential type checker's import order and marks its back
// edges as cycle cuts; build, typechecking each package in its own
// goroutine once the imports it waits for are done. Dependency packages
// are typechecked with IgnoreFuncBodies (the export-data role); each target
// gets its own types.Info.
type loader struct {
	fset    *token.FileSet
	ctxt    build.Context
	modPath string // module path of Dir ("" = no module)
	modDir  string
	targets map[string]bool
	tests   bool
	warns   []string

	mu   sync.Mutex // guards pkgs during discovery
	pkgs map[string]*loadedPackage
	wg   sync.WaitGroup // discovery goroutines
	dirs chan struct{}  // bounds concurrent directory reads
	cpu  chan struct{}  // one slot per GOMAXPROCS for parsing and typechecking
}

func newLoader(o Options) (*loader, error) {
	ctxt := build.Default
	// Cgo files cannot be typechecked from source; selecting the pure-Go
	// fallbacks keeps the whole standard library loadable.
	ctxt.CgoEnabled = false
	procs := runtime.GOMAXPROCS(0)
	l := &loader{
		fset:    token.NewFileSet(),
		ctxt:    ctxt,
		targets: map[string]bool{},
		tests:   o.IncludeTests,
		pkgs:    map[string]*loadedPackage{},
		dirs:    make(chan struct{}, 2*procs),
		cpu:     make(chan struct{}, procs),
	}
	if o.Dir != "" {
		dir, err := filepath.Abs(o.Dir)
		if err != nil {
			return nil, err
		}
		mod, err := modulePath(dir)
		if err != nil {
			return nil, err
		}
		l.modPath, l.modDir = mod, dir
	}
	return l, nil
}

// modulePath reads the module path out of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("gogen: %s is not a module root: %w", dir, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("gogen: no module line in %s/go.mod", dir)
}

// targetPaths resolves the import paths to analyze: the explicit Packages
// list, or (with Dir and no list) every package directory under the module.
func (l *loader) targetPaths(o Options) ([]string, error) {
	if len(o.Packages) > 0 {
		// A list typed by hand ("fmt, os") may carry blanks, empty
		// entries and repeats; each package is analyzed once.
		var paths []string
		for _, p := range o.Packages {
			if p = strings.TrimSpace(p); p != "" {
				paths = append(paths, p)
			}
		}
		sort.Strings(paths)
		return slices.Compact(paths), nil
	}
	if l.modDir == "" {
		return nil, fmt.Errorf("gogen: no module directory and no package list")
	}
	var paths []string
	err := filepath.WalkDir(l.modDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.modDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here (or multiple packages): skip
		}
		rel, err := filepath.Rel(l.modDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modPath)
		} else {
			paths = append(paths, l.modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// dirFor maps an import path to its source directory: module-internal
// paths resolve inside the module, anything else under GOROOT/src.
func (l *loader) dirFor(path string) (string, error) {
	if l.modPath != "" {
		if path == l.modPath {
			return l.modDir, nil
		}
		if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
			return filepath.Join(l.modDir, filepath.FromSlash(rest)), nil
		}
	}
	bp, err := l.ctxt.Import(path, "", build.FindOnly)
	if err != nil {
		// The standard library vendors its golang.org/x dependencies
		// under GOROOT/src/vendor.
		if bp, err2 := l.ctxt.Import("vendor/"+path, "", build.FindOnly); err2 == nil {
			return bp.Dir, nil
		}
		return "", fmt.Errorf("gogen: cannot resolve import %q: %w", path, err)
	}
	return bp.Dir, nil
}

// maxWarnings bounds the warning list on badly broken inputs.
const maxWarnings = 200

// loadTargets loads the requested packages and returns them in sorted
// import path order. A target that cannot be loaded is an error: the
// first such target in that order, as the sequential loader reports it;
// a dependency that cannot be loaded is a warning in each importer.
func (l *loader) loadTargets(o Options) ([]*loadedPackage, error) {
	paths, err := l.targetPaths(o)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("gogen: no packages to analyze")
	}
	for _, p := range paths {
		l.targets[p] = true
	}
	roots := make([]*loadedPackage, len(paths))
	for i, p := range paths {
		roots[i] = l.node(p)
	}
	l.wg.Wait()
	for _, r := range roots {
		if r.err != nil {
			return nil, r.err
		}
	}
	l.build(roots)
	return roots, nil
}

// loadSource loads a single in-memory file (for golden tests) as the one
// root; its imports resolve against the standard library.
func (l *loader) loadSource(src string) (*loadedPackage, error) {
	f, err := parser.ParseFile(l.fset, "input.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	root := &loadedPackage{path: f.Name.Name, target: true, files: []*ast.File{f}}
	l.targets[root.path] = true
	l.expand(root)
	l.wg.Wait()
	l.build([]*loadedPackage{root})
	return root, nil
}

// node returns the package for an import path, starting its discovery the
// first time the path is seen. "unsafe" is not a node: the importer
// answers it with types.Unsafe.
func (l *loader) node(path string) *loadedPackage {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	p := &loadedPackage{path: path, target: l.targets[path]}
	l.pkgs[path] = p
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.discover(p)
	}()
	return p
}

// discover resolves a package's directory, parses its files and starts
// discovery of its imports. A package that fails to resolve or parse has
// no imports: the sequential loader never typechecks it, so never asks
// for them.
func (l *loader) discover(p *loadedPackage) {
	l.dirs <- struct{}{}
	dir, err := l.dirFor(p.path)
	var bp *build.Package
	if err == nil {
		if bp, err = l.ctxt.ImportDir(dir, 0); err != nil {
			err = fmt.Errorf("gogen: %s: %w", p.path, err)
		}
	}
	<-l.dirs
	if err != nil {
		p.err = err
		return
	}
	names := append([]string(nil), bp.GoFiles...)
	if p.target && l.tests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	if p.files, p.err = l.parseFiles(dir, names); p.err == nil {
		l.expand(p)
	}
}

// parseFiles parses one package's files concurrently, each parse holding
// a CPU slot, taken before its goroutine starts so that parsing never has
// more goroutines than slots. On failure it reports the first failing
// file in name order.
func (l *loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		l.cpu <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			files[i], errs[i] = parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			<-l.cpu
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gogen: parsing %s: %w", names[i], err)
		}
	}
	return files, nil
}

// expand records the imports the type checker will ask p for and starts
// their discovery. go/types walks the files in order and each file's
// import specs in source order, asks once per path, answers "C" itself
// (FakeImportC) and skips paths it rejects as malformed.
func (l *loader) expand(p *loadedPackage) {
	seen := map[string]bool{}
	for _, f := range p.files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || path == "" || path == "C" || seen[path] {
				continue
			}
			seen[path] = true
			p.imports = append(p.imports, path)
			if path != "unsafe" {
				l.node(path)
			}
		}
	}
}

// DFS colors of loadedPackage.state.
const (
	unvisited = iota
	onStack
	finished
)

// order walks the import graph depth-first from the roots, following each
// package's imports in the order the type checker asks for them: the walk
// the sequential loader makes. An import of a package still on the walk's
// stack is a cycle cut, answered with the sequential loader's
// import-cycle error; every other import of a loadable package is a
// dependency to wait for. Dependencies finish earlier in the walk, so the
// waits form a DAG. It returns the loadable packages in the order the walk
// finishes them.
func (l *loader) order(roots []*loadedPackage) []*loadedPackage {
	var post []*loadedPackage
	var visit func(p *loadedPackage)
	visit = func(p *loadedPackage) {
		p.state = onStack
		for _, path := range p.imports {
			q := l.pkgs[path]
			if q == nil || q.err != nil {
				continue // "unsafe", or answered with q's error
			}
			switch q.state {
			case onStack:
				if p.cut == nil {
					p.cut = map[string]bool{}
				}
				p.cut[path] = true
				continue
			case unvisited:
				visit(q)
			}
			p.deps = append(p.deps, q)
		}
		p.state = finished
		post = append(post, p)
	}
	for _, r := range roots {
		if r.state == unvisited {
			visit(r)
		}
	}
	return post
}

// build typechecks every package reached from the roots, each in its own
// goroutine once its dependencies are done, and gathers the warnings in
// the walk's finishing order. A goroutine takes a CPU slot only after its
// waits, so the slots never deadlock.
func (l *loader) build(roots []*loadedPackage) {
	post := l.order(roots)
	for _, p := range post {
		p.done = make(chan struct{})
	}
	var wg sync.WaitGroup
	for _, p := range post {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(p.done)
			for _, d := range p.deps {
				<-d.done
			}
			l.cpu <- struct{}{}
			l.check(p)
			<-l.cpu
		}()
	}
	wg.Wait()
	for _, p := range post {
		l.warns = append(l.warns, p.warns...)
	}
	if len(l.warns) > maxWarnings {
		l.warns = l.warns[:maxWarnings]
	}
}

// check typechecks one package whose dependencies are done. Target
// packages keep bodies and full type information; dependencies skip
// function bodies (go/types still resolves their declarations, the
// export-data role), and their syntax is dropped afterwards.
func (l *loader) check(p *loadedPackage) {
	if p.target {
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	conf := types.Config{
		Importer:         importer{l, p},
		FakeImportC:      true,
		IgnoreFuncBodies: !p.target,
		// Typechecking is lenient: real code bases (and the standard
		// library under a foreign build configuration) can produce
		// harmless errors; the generator treats expressions without type
		// information conservatively. Errors are surfaced as warnings.
		Error: func(err error) {
			if len(p.warns) < maxWarnings {
				p.warns = append(p.warns, "typecheck: "+err.Error())
			}
		},
	}
	// Check always returns a package; its error is the first of those
	// reported to Error.
	p.pkg, _ = conf.Check(p.path, l.fset, p.files, p.info)
	if !p.target {
		p.files = nil
	}
}

// importer answers one package's imports from the finished graph: a cut
// import with the import-cycle error, an unloadable one with its error.
type importer struct {
	l *loader
	p *loadedPackage
}

func (im importer) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if im.p.cut[path] {
		return nil, fmt.Errorf("gogen: import cycle through %q", path)
	}
	q := im.l.pkgs[path]
	if q == nil {
		return nil, fmt.Errorf("gogen: import %q was not discovered", path)
	}
	if q.err != nil {
		return nil, q.err
	}
	return q.pkg, nil
}
