package gogen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"antgrass/internal/cgen"
)

// seqLoader is the reference for the concurrent loader: the recursive,
// one-package-at-a-time loader it replaced, kept verbatim in behavior. It
// typechecks each package when the type checker first asks for it, marks
// the packages on the recursion stack to break import cycles, and shares
// one types.Info among the targets. Resolution (targetPaths, dirFor) is
// the production loader's.
type seqLoader struct {
	*loader
	done    map[string]*loadedPackage
	loading map[string]bool
	info    *types.Info
}

func newSeqLoader(o Options) (*seqLoader, error) {
	l, err := newLoader(o)
	if err != nil {
		return nil, err
	}
	return &seqLoader{
		loader:  l,
		done:    map[string]*loadedPackage{},
		loading: map[string]bool{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}, nil
}

func (l *seqLoader) Import(path string) (*types.Package, error) {
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *seqLoader) warn(err error) {
	if len(l.warns) < maxWarnings {
		l.warns = append(l.warns, "typecheck: "+err.Error())
	}
}

func (l *seqLoader) load(path string) (*loadedPackage, error) {
	if path == "unsafe" {
		return &loadedPackage{path: path, pkg: types.Unsafe}, nil
	}
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("gogen: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("gogen: %s: %w", path, err)
	}
	target := l.targets[path]
	names := append([]string(nil), bp.GoFiles...)
	if target && l.tests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("gogen: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := (*types.Info)(nil)
	if target {
		info = l.info
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: !target,
		Error:            l.warn,
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if pkg == nil {
		return nil, fmt.Errorf("gogen: typechecking %s: %v", path, err)
	}
	p := &loadedPackage{path: path, files: files, pkg: pkg, target: target, info: info}
	l.done[path] = p
	return p, nil
}

func (l *seqLoader) loadTargets(o Options) ([]*loadedPackage, error) {
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
	var out []*loadedPackage
	for _, p := range paths {
		lp, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

func (l *seqLoader) loadSource(src string) (*loadedPackage, error) {
	f, err := parser.ParseFile(l.fset, "input.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	path := f.Name.Name
	l.targets[path] = true
	conf := types.Config{Importer: l, FakeImportC: true, Error: l.warn}
	pkg, err := conf.Check(path, l.fset, []*ast.File{f}, l.info)
	if pkg == nil {
		return nil, fmt.Errorf("gogen: typechecking: %v", err)
	}
	p := &loadedPackage{path: path, files: []*ast.File{f}, pkg: pkg, target: true, info: l.info}
	l.done[path] = p
	return p, nil
}

func generateWith(fset *token.FileSet, pkgs []*loadedPackage, warns []string) (*cgen.Unit, error) {
	g := newGenerator(fset)
	if err := g.generate(pkgs, warns); err != nil {
		return nil, err
	}
	return g.unit, nil
}

// CompileSequential is Compile through the reference loader.
func CompileSequential(o Options) (*cgen.Unit, error) {
	l, err := newSeqLoader(o)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.loadTargets(o)
	if err != nil {
		return nil, err
	}
	return generateWith(l.fset, pkgs, l.warns)
}

// CompileSourceSequential is CompileSource through the reference loader.
func CompileSourceSequential(src string) (*cgen.Unit, error) {
	l, err := newSeqLoader(Options{})
	if err != nil {
		return nil, err
	}
	p, err := l.loadSource(src)
	if err != nil {
		return nil, err
	}
	return generateWith(l.fset, []*loadedPackage{p}, l.warns)
}
