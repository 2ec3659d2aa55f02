package gogen

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"antgrass/internal/cgen"
	"antgrass/internal/constraint"
)

// Compile loads the configured packages and generates their inclusion
// constraints. The returned Unit is the same interchange the C front end
// produces (see docs/FORMAT.md): Prog plus name tables, call sites and
// dereference sites for the callgraph/modref clients.
func Compile(o Options) (*cgen.Unit, error) {
	l, err := newLoader(o)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.loadTargets(o)
	if err != nil {
		return nil, err
	}
	g := newGenerator(l.fset)
	if err := g.generate(pkgs, l.warns); err != nil {
		return nil, err
	}
	return g.unit, nil
}

// CompileSource generates constraints for a single in-memory file
// (package path "p"); imports resolve against the standard library. It
// exists for the golden tests and small experiments.
func CompileSource(src string) (*cgen.Unit, error) {
	l, err := newLoader(Options{})
	if err != nil {
		return nil, err
	}
	f, err := l.loadSource(src)
	if err != nil {
		return nil, err
	}
	g := newGenerator(l.fset)
	if err := g.generate([]*loadedPackage{f}, l.warns); err != nil {
		return nil, err
	}
	return g.unit, nil
}

// funcInfo describes one function object: the contiguous id block
// [id, id+1=$ret, id+2...=params] plus, for methods, an out-of-band
// receiver variable (see docs/GOFRONTEND.md §calling convention).
type funcInfo struct {
	id       uint32
	nparams  int
	variadic bool
	recv     uint32 // receiver variable; noVar if none
	name     string
}

const noVar = ^uint32(0)

type generator struct {
	fset *token.FileSet
	unit *cgen.Unit
	prog *constraint.Program
	info *types.Info // the current package's type information

	vars    map[types.Object]uint32
	funcs   map[types.Object]*funcInfo
	externs map[string]*funcInfo // non-target functions, by qualified name

	methodSets map[types.Type]*types.MethodSet

	voidVar  uint32 // shared pointer-free value sink
	panicVar uint32 // the panic/recover conduit

	curFn   string // qualified name of the function being generated
	curInfo *funcInfo
	temps   int

	// maxIndirectArgs tracks the widest indirect call so finalize can
	// guarantee Validate's offset-within-max-span rule even when no
	// declared function is that wide.
	maxIndirectArgs int
}

func newGenerator(fset *token.FileSet) *generator {
	g := &generator{
		fset: fset,
		prog: constraint.NewProgram(),
		unit: &cgen.Unit{
			Funcs:   map[string]uint32{},
			Globals: map[string]uint32{},
			Locals:  map[string]uint32{},
		},
		vars:       map[types.Object]uint32{},
		funcs:      map[types.Object]*funcInfo{},
		externs:    map[string]*funcInfo{},
		methodSets: map[types.Type]*types.MethodSet{},
	}
	g.unit.Prog = g.prog
	g.voidVar = g.prog.AddVar("$void")
	g.panicVar = g.prog.AddVar("$panic")
	return g
}

func (g *generator) warnf(format string, args ...interface{}) {
	if len(g.unit.Warnings) < maxWarnings {
		g.unit.Warnings = append(g.unit.Warnings, fmt.Sprintf(format, args...))
	}
}

func (g *generator) temp() uint32 {
	g.temps++
	return g.prog.AddVar(fmt.Sprintf("$t%d", g.temps))
}

// pos renders a position as base.go:line:col, the object-naming scheme of
// the spec (stable across machines: no directory components).
func (g *generator) pos(p token.Pos) string {
	position := g.fset.Position(p)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(position.Filename), position.Line, position.Column)
}

func (g *generator) line(p token.Pos) int { return g.fset.Position(p).Line }

// object allocates a fresh abstract heap object (new, make, composite
// literal, append growth, conversion result).
func (g *generator) object(kind string, p token.Pos) uint32 {
	return g.prog.AddVar(kind + "@" + g.pos(p))
}

// generate runs the two passes over the target packages: declare every
// package-level function and variable (so forward and cross-package
// references resolve), then generate bodies and initializers. The loader's
// warnings come first in the Unit's list. Each package's syntax is looked
// up in its own types.Info.
func (g *generator) generate(pkgs []*loadedPackage, warns []string) error {
	g.unit.Warnings = append(g.unit.Warnings, warns...)
	for _, p := range pkgs {
		g.info = p.info
		for _, f := range p.files {
			g.declareFile(p, f)
		}
	}
	for _, p := range pkgs {
		g.info = p.info
		for _, f := range p.files {
			g.genFile(p, f)
		}
	}
	g.finalize()
	if err := g.prog.Validate(); err != nil {
		return fmt.Errorf("gogen: internal error: %v", err)
	}
	return nil
}

// finalize guarantees that every indirect-call offset is within the
// maximum span (Validate's rule): when no declared function is as wide as
// the widest indirect call, a reachable-by-nothing sink block is added.
func (g *generator) finalize() {
	maxSpan := 1
	for _, s := range g.prog.Span {
		if int(s) > maxSpan {
			maxSpan = int(s)
		}
	}
	if need := 2 + g.maxIndirectArgs; need > maxSpan {
		g.prog.AddFunc("$widest-callsite", g.maxIndirectArgs)
	}
}

// qualifiedName renders pkgpath.Name, with methods as pkgpath.(Recv).Name.
func qualifiedName(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path() + "."
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			return pkg + "(" + recvString(recv) + ")." + obj.Name()
		}
	}
	return pkg + obj.Name()
}

// recvString renders a receiver type without its package path.
func recvString(t types.Type) string {
	switch t := t.(type) {
	case *types.Pointer:
		return "*" + recvString(t.Elem())
	case *types.Named:
		return t.Obj().Name()
	default:
		return types.TypeString(t, func(*types.Package) string { return "" })
	}
}

// declareFile registers package-level functions and variables.
func (g *generator) declareFile(p *loadedPackage, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj, ok := g.info.Defs[d.Name].(*types.Func)
			if !ok {
				continue
			}
			g.declareFunc(obj)
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := g.info.Defs[name]
					if obj == nil || name.Name == "_" {
						continue
					}
					id := g.prog.AddVar(qualifiedName(obj))
					g.vars[obj] = id
					g.unit.Globals[qualifiedName(obj)] = id
				}
			}
		}
	}
}

// declareFunc creates the function object block (and receiver variable)
// for a target function or method.
func (g *generator) declareFunc(obj *types.Func) *funcInfo {
	if fi, ok := g.funcs[obj]; ok {
		return fi
	}
	sig, _ := obj.Type().(*types.Signature)
	name := qualifiedName(obj)
	// A package may declare several init functions; disambiguate by
	// position so each keeps its own block.
	if obj.Name() == "init" && sig != nil && sig.Recv() == nil {
		name += "@" + g.pos(obj.Pos())
	}
	fi := &funcInfo{nparams: 0, recv: noVar, name: name}
	if sig != nil {
		fi.nparams = sig.Params().Len()
		fi.variadic = sig.Variadic()
	}
	fi.id = g.prog.AddFunc(name, fi.nparams)
	if sig != nil && sig.Recv() != nil {
		fi.recv = g.prog.AddVar(name + "$recv")
	}
	g.funcs[obj] = fi
	g.unit.Funcs[name] = fi.id
	return fi
}

// funcInfoFor resolves any *types.Func — target, or an extern summarized
// shallowly (arguments flow into its parameter block; its return slot
// stays empty unless some analyzed code stores through it).
func (g *generator) funcInfoFor(obj *types.Func) *funcInfo {
	obj = obj.Origin()
	if fi, ok := g.funcs[obj]; ok {
		return fi
	}
	name := qualifiedName(obj)
	if fi, ok := g.externs[name]; ok {
		return fi
	}
	sig, _ := obj.Type().(*types.Signature)
	fi := &funcInfo{recv: noVar, name: name}
	if sig != nil {
		fi.nparams = sig.Params().Len()
		fi.variadic = sig.Variadic()
	}
	fi.id = g.prog.AddFunc(name, fi.nparams)
	if sig != nil && sig.Recv() != nil {
		fi.recv = g.prog.AddVar(name + "$recv")
	}
	g.externs[name] = fi
	g.unit.Funcs[name] = fi.id
	return fi
}

// genFile generates bodies and package-level initializers.
func (g *generator) genFile(p *loadedPackage, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj, ok := g.info.Defs[d.Name].(*types.Func)
			if !ok || d.Body == nil {
				continue
			}
			g.genFuncBody(g.funcs[obj], obj, d.Recv, d.Type, d.Body)
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			save, saveInfo := g.curFn, g.curInfo
			g.curFn, g.curInfo = p.path+".<init>", nil
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					g.genValueSpec(vs)
				}
			}
			g.curFn, g.curInfo = save, saveInfo
		}
	}
}

// genFuncBody maps the signature's parameter/receiver/result objects onto
// the function block, generates the body, then funnels named results into
// the return slot (rule ret-named).
func (g *generator) genFuncBody(fi *funcInfo, obj *types.Func, recv *ast.FieldList, ftyp *ast.FuncType, body *ast.BlockStmt) {
	sig, _ := obj.Type().(*types.Signature)
	saveFn, saveInfo := g.curFn, g.curInfo
	g.curFn, g.curInfo = fi.name, fi
	defer func() { g.curFn, g.curInfo = saveFn, saveInfo }()

	if sig != nil {
		if r := sig.Recv(); r != nil && fi.recv != noVar {
			g.vars[r] = fi.recv
			g.unit.Locals[fi.name+"$recv"] = fi.recv
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			g.vars[p] = fi.id + constraint.ParamOffset + uint32(i)
			if p.Name() != "" && p.Name() != "_" {
				g.unit.Locals[fi.name+"::"+p.Name()] = g.vars[p]
			}
		}
		var named []uint32
		for i := 0; i < sig.Results().Len(); i++ {
			r := sig.Results().At(i)
			if r.Name() == "" || r.Name() == "_" {
				continue
			}
			id := g.local(r)
			named = append(named, id)
		}
		g.genStmt(body)
		for _, id := range named {
			g.prog.AddCopy(fi.id+constraint.RetOffset, id)
		}
		return
	}
	g.genStmt(body)
}

// local returns (creating on first use) the constraint variable of a
// local object.
func (g *generator) local(obj types.Object) uint32 {
	if id, ok := g.vars[obj]; ok {
		return id
	}
	name := g.curFn + "::" + obj.Name()
	if _, taken := g.unit.Locals[name]; taken {
		name += "@" + g.pos(obj.Pos())
	}
	id := g.prog.AddVar(name)
	g.vars[obj] = id
	if obj.Name() != "_" {
		g.unit.Locals[name] = id
	}
	return id
}

// objVar resolves an object reference to its constraint variable,
// materializing function references as addresses (rule func-value).
func (g *generator) objVar(obj types.Object) uint32 {
	switch obj := obj.(type) {
	case *types.Var:
		if id, ok := g.vars[obj]; ok {
			return id
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			// A package-level variable of a non-target package: model it
			// as a fresh global of ours (shallow; nothing initializes it).
			id := g.prog.AddVar(qualifiedName(obj))
			g.vars[obj] = id
			g.unit.Globals[qualifiedName(obj)] = id
			return id
		}
		return g.local(obj)
	case *types.Func:
		fi := g.funcInfoFor(obj)
		t := g.temp()
		g.prog.AddAddrOf(t, fi.id)
		return t
	}
	return g.voidVar
}

// ---------- type predicates ----------

// pointerLike reports whether values of t can carry points-to
// information. Scalars, strings and pointer-free aggregates generate no
// constraints (spec §scalars; string backing stores are immutable and
// outside the model).
func (g *generator) pointerLike(t types.Type) bool {
	if t == nil {
		return true // missing type info: be conservative
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.Invalid
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return g.pointerLike(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if g.pointerLike(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if g.pointerLike(u.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return true // type parameters, unions: conservative
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// derefContainer reports whether indexing/element access on t goes
// through a pointer-shaped handle (slice, pointer-to-array) rather than
// the value itself (array, struct).
func derefContainer(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Chan:
		return true
	case *types.Pointer:
		return true
	case *types.Array:
		return false
	default:
		_ = u
		return false
	}
}

// typeOf resolves an expression's static type. Defining identifiers
// (`x := ...`, `var x T = ...`) have no Types entry, only a Defs one —
// missing that here would drop interface conversions at declaration
// sites, so delegate to Info.TypeOf which consults Types, Defs and Uses.
func (g *generator) typeOf(e ast.Expr) types.Type {
	return g.info.TypeOf(e)
}

func (g *generator) methodSet(t types.Type) *types.MethodSet {
	if ms, ok := g.methodSets[t]; ok {
		return ms
	}
	ms := types.NewMethodSet(t)
	g.methodSets[t] = ms
	return ms
}

// ---------- assignment machinery ----------

// assignTo models dst = src where dst is a plain variable. When the
// destination's static type is an interface and the source is concrete,
// the source type's method set flows into dst as function objects with
// the receiver bound at this site (rule iface-conv); the value itself
// always flows as a copy.
func (g *generator) assignTo(dst uint32, dstType types.Type, src uint32, srcType types.Type) {
	if dst == g.voidVar || src == g.voidVar {
		return
	}
	if dstType != nil && !g.pointerLike(dstType) {
		return
	}
	if isInterface(dstType) && srcType != nil && !isInterface(srcType) {
		g.bindMethods(dst, src, srcType)
	}
	if dst != src {
		g.prog.AddCopy(dst, src)
	}
}

// bindMethods flows srcType's method set into an interface destination:
// per method, the function object's address is added to dst and the
// source value is bound to the method's receiver variable (with a load
// when a pointer converts to a value receiver).
func (g *generator) bindMethods(dst uint32, src uint32, srcType types.Type) {
	ms := g.methodSet(srcType)
	for i := 0; i < ms.Len(); i++ {
		m, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		fi := g.funcInfoFor(m)
		g.prog.AddAddrOf(dst, fi.id)
		if fi.recv == noVar {
			continue
		}
		sig, _ := m.Origin().Type().(*types.Signature)
		recvPtr := sig != nil && isPointer(sig.Recv().Type())
		switch {
		case !recvPtr && isPointer(srcType):
			// (*T → value receiver): the receiver gets the pointee.
			t := g.temp()
			g.addLoad(t, src)
			g.prog.AddCopy(fi.recv, t)
		default:
			g.prog.AddCopy(fi.recv, src)
		}
	}
}

// lvalue is a normalized assignment target: a variable, or one
// dereference of a pointer-shaped handle.
type lvalue struct {
	base  uint32
	deref bool
}

// addLoad/addStore wrap the raw constraints with dereference-site
// bookkeeping for the MOD/REF client.
func (g *generator) addLoad(dst, ptr uint32) {
	g.unit.DerefSites = append(g.unit.DerefSites, cgen.DerefSite{Fn: g.curFn, Ptr: ptr})
	g.prog.AddLoad(dst, ptr, 0)
}

func (g *generator) addStore(ptr, src uint32) {
	g.unit.DerefSites = append(g.unit.DerefSites, cgen.DerefSite{Fn: g.curFn, Ptr: ptr, Write: true})
	g.prog.AddStore(ptr, src, 0)
}

// read materializes the value of an lvalue (rule load).
func (g *generator) read(lv lvalue) uint32 {
	if !lv.deref {
		return lv.base
	}
	if lv.base == g.voidVar {
		return g.voidVar
	}
	t := g.temp()
	g.addLoad(t, lv.base)
	return t
}

// storeTo writes src into an lvalue (rules copy/store), inserting the
// interface wrap through a temporary when the destination element type is
// an interface.
func (g *generator) storeTo(lv lvalue, src uint32, dstType, srcType types.Type) {
	if src == g.voidVar {
		return
	}
	if dstType != nil && !g.pointerLike(dstType) {
		return
	}
	if !lv.deref {
		g.assignTo(lv.base, dstType, src, srcType)
		return
	}
	if lv.base == g.voidVar {
		return
	}
	v := src
	if isInterface(dstType) && srcType != nil && !isInterface(srcType) {
		t := g.temp()
		g.assignTo(t, dstType, src, srcType)
		v = t
	}
	g.addStore(lv.base, v)
}

// genLValue normalizes an assignment target.
func (g *generator) genLValue(e ast.Expr) lvalue {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return lvalue{base: g.temp()}
		}
		obj := g.info.Defs[e]
		if obj == nil {
			obj = g.info.Uses[e]
		}
		if obj == nil {
			return lvalue{base: g.temp()}
		}
		return lvalue{base: g.objVar(obj)}
	case *ast.ParenExpr:
		return g.genLValue(e.X)
	case *ast.StarExpr:
		return lvalue{base: g.genExpr(e.X), deref: true}
	case *ast.SelectorExpr:
		return g.genSelectorLValue(e)
	case *ast.IndexExpr:
		return g.genIndexLValue(e)
	}
	// Not a recognized target; evaluate for effect, give a throwaway.
	g.genExpr(e)
	return lvalue{base: g.temp()}
}

// genSelectorLValue lowers x.f: through a pointer (explicit or via an
// embedded-pointer path) the base object is dereferenced; on a struct
// value the field collapses into the variable itself (rule field-insens).
func (g *generator) genSelectorLValue(e *ast.SelectorExpr) lvalue {
	if sel, ok := g.info.Selections[e]; ok {
		xt := g.typeOf(e.X)
		switch {
		case isPointer(xt):
			return lvalue{base: g.genExpr(e.X), deref: true}
		case sel.Indirect():
			// The path goes through an embedded pointer; its value is
			// collapsed into the base variable, so dereference that.
			return lvalue{base: g.read(g.genLValue(e.X)), deref: true}
		default:
			return g.genLValue(e.X)
		}
	}
	// Qualified reference pkg.V.
	if obj := g.info.Uses[e.Sel]; obj != nil {
		return lvalue{base: g.objVar(obj)}
	}
	g.genExpr(e.X)
	return lvalue{base: g.temp()}
}

// genIndexLValue lowers x[i]: slices and pointers-to-array dereference
// the handle, maps store into the collapsed element object, arrays
// collapse into the array variable (rules elem-*).
func (g *generator) genIndexLValue(e *ast.IndexExpr) lvalue {
	xt := g.typeOf(e.X)
	g.genExpr(e.Index) // evaluate for effect
	if xt == nil {
		return lvalue{base: g.genExpr(e.X), deref: true}
	}
	switch xt.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return lvalue{base: g.genExpr(e.X), deref: true}
	case *types.Array:
		return g.genLValue(e.X)
	}
	g.genExpr(e.X)
	return lvalue{base: g.temp()} // string index etc.
}

// elemTypeOf returns the element type stored through a container handle.
func elemTypeOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	case *types.Pointer:
		return u.Elem()
	}
	return nil
}

// ---------- statements ----------

func (g *generator) genStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			g.genStmt(st)
		}
	case *ast.DeclStmt:
		if d, ok := s.Decl.(*ast.GenDecl); ok && d.Tok == token.VAR {
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					g.genValueSpec(vs)
				}
			}
		}
	case *ast.ExprStmt:
		g.genExpr(s.X)
	case *ast.AssignStmt:
		g.genAssign(s)
	case *ast.IncDecStmt:
		g.genExpr(s.X)
	case *ast.SendStmt:
		ch := g.genExpr(s.Chan)
		v := g.genExpr(s.Value)
		g.storeTo(lvalue{base: ch, deref: true}, v, elemTypeOf(g.typeOf(s.Chan)), g.typeOf(s.Value))
	case *ast.ReturnStmt:
		g.genReturn(s)
	case *ast.IfStmt:
		if s.Init != nil {
			g.genStmt(s.Init)
		}
		g.genExpr(s.Cond)
		g.genStmt(s.Body)
		if s.Else != nil {
			g.genStmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			g.genStmt(s.Init)
		}
		if s.Cond != nil {
			g.genExpr(s.Cond)
		}
		if s.Post != nil {
			g.genStmt(s.Post)
		}
		g.genStmt(s.Body)
	case *ast.RangeStmt:
		g.genRange(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.genStmt(s.Init)
		}
		if s.Tag != nil {
			g.genExpr(s.Tag)
		}
		g.genStmt(s.Body)
	case *ast.TypeSwitchStmt:
		g.genTypeSwitch(s)
	case *ast.SelectStmt:
		g.genStmt(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			g.genStmt(s.Comm)
		}
		for _, st := range s.Body {
			g.genStmt(st)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			if tv, ok := g.info.Types[e]; !ok || !tv.IsType() {
				g.genExpr(e)
			}
		}
		for _, st := range s.Body {
			g.genStmt(st)
		}
	case *ast.GoStmt:
		g.genCall(s.Call)
	case *ast.DeferStmt:
		g.genCall(s.Call)
	case *ast.LabeledStmt:
		g.genStmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (g *generator) genValueSpec(vs *ast.ValueSpec) {
	// Declare in order, then wire initializers.
	ids := make([]uint32, len(vs.Names))
	for i, name := range vs.Names {
		obj := g.info.Defs[name]
		if obj == nil {
			ids[i] = g.temp()
			continue
		}
		if id, ok := g.vars[obj]; ok {
			ids[i] = id // package-level, pre-declared
		} else {
			ids[i] = g.local(obj)
		}
	}
	switch {
	case len(vs.Values) == len(vs.Names):
		for i, val := range vs.Values {
			v := g.genExpr(val)
			g.assignTo(ids[i], g.typeOf(vs.Names[i]), v, g.typeOf(val))
		}
	case len(vs.Values) == 1:
		// Multi-value initializer: every name drinks from the collapsed
		// result (rule multi-return).
		v := g.genExpr(vs.Values[0])
		for i := range ids {
			g.assignTo(ids[i], g.typeOf(vs.Names[i]), v, nil)
		}
	}
}

func (g *generator) genAssign(s *ast.AssignStmt) {
	if len(s.Rhs) == len(s.Lhs) {
		// Evaluate all RHS first (Go semantics; also correct for swaps).
		vals := make([]uint32, len(s.Rhs))
		for i, r := range s.Rhs {
			vals[i] = g.genExpr(r)
		}
		for i, lhs := range s.Lhs {
			lv := g.genLValue(lhs)
			g.storeTo(lv, vals[i], g.typeOf(lhs), g.typeOf(s.Rhs[i]))
		}
		return
	}
	// a, b = f() / v, ok = m[k] / v, ok = <-ch / v, ok = i.(T):
	// one collapsed source value flows to every destination.
	v := g.genExpr(s.Rhs[0])
	for _, lhs := range s.Lhs {
		lv := g.genLValue(lhs)
		g.storeTo(lv, v, g.typeOf(lhs), nil)
	}
}

func (g *generator) genReturn(s *ast.ReturnStmt) {
	if g.curInfo == nil {
		for _, e := range s.Results {
			g.genExpr(e)
		}
		return
	}
	ret := g.curInfo.id + constraint.RetOffset
	for _, e := range s.Results {
		v := g.genExpr(e)
		g.assignTo(ret, nil, v, g.typeOf(e))
	}
}

// genRange lowers for k, v := range x per container kind; ranging over a
// function lowers to an indirect call of the iterator with a synthesized
// yield function object whose parameter slots feed the range variables
// (rule range-func).
func (g *generator) genRange(s *ast.RangeStmt) {
	defineOrAssign := func(e ast.Expr, v uint32, t types.Type) {
		if e == nil {
			return
		}
		lv := g.genLValue(e)
		g.storeTo(lv, v, g.typeOf(e), t)
	}
	xt := g.typeOf(s.X)
	xv := g.genExpr(s.X)
	switch u := typeUnderlying(xt).(type) {
	case *types.Slice:
		t := g.temp()
		g.addLoadIf(t, xv, u.Elem())
		defineOrAssign(s.Value, t, u.Elem())
	case *types.Pointer: // *[N]T
		t := g.temp()
		g.addLoadIf(t, xv, elemTypeOf(u.Elem()))
		defineOrAssign(s.Value, t, elemTypeOf(u.Elem()))
	case *types.Array:
		defineOrAssign(s.Value, xv, u.Elem())
	case *types.Map:
		k := g.temp()
		g.addLoadIf(k, xv, u.Key())
		defineOrAssign(s.Key, k, u.Key())
		v := g.temp()
		g.addLoadIf(v, xv, u.Elem())
		defineOrAssign(s.Value, v, u.Elem())
		g.genStmt(s.Body)
		return
	case *types.Chan:
		t := g.temp()
		g.addLoadIf(t, xv, u.Elem())
		defineOrAssign(s.Key, t, u.Elem())
		g.genStmt(s.Body)
		return
	case *types.Signature:
		g.genRangeFunc(s, xv, u)
		return
	}
	// Key of slice/array/string ranges is an int: nothing flows.
	g.genStmt(s.Body)
}

// addLoadIf loads through ptr only when the element type can carry
// pointers (keeps integer slices constraint-free).
func (g *generator) addLoadIf(dst, ptr uint32, elem types.Type) {
	if ptr == g.voidVar || (elem != nil && !g.pointerLike(elem)) {
		return
	}
	g.addLoad(dst, ptr)
}

func typeUnderlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// genRangeFunc models range-over-func: a yield function object is
// synthesized whose parameter slots copy into the range variables, and
// the iterator is invoked indirectly with the yield's address — so values
// the iterator passes to yield flow into the loop body.
func (g *generator) genRangeFunc(s *ast.RangeStmt, iter uint32, sig *types.Signature) {
	nvars := 0
	if s.Key != nil {
		nvars++
	}
	if s.Value != nil {
		nvars++
	}
	yield := g.prog.AddFunc("yield@"+g.pos(s.Range), nvars)
	g.unit.Funcs["yield@"+g.pos(s.Range)] = yield
	slot := 0
	bind := func(e ast.Expr) {
		if e == nil {
			return
		}
		lv := g.genLValue(e)
		g.storeTo(lv, yield+constraint.ParamOffset+uint32(slot), g.typeOf(e), nil)
		slot++
	}
	bind(s.Key)
	bind(s.Value)
	t := g.temp()
	g.prog.AddAddrOf(t, yield)
	if iter != g.voidVar {
		g.prog.AddStore(iter, t, constraint.ParamOffset)
		g.trackIndirect(1)
	}
	g.genStmt(s.Body)
}

func (g *generator) genTypeSwitch(s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		g.genStmt(s.Init)
	}
	// The scrutinee: either `x.(type)` or `y := x.(type)`.
	var src uint32
	var srcType types.Type
	switch a := s.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
			src = g.genExpr(ta.X)
			srcType = g.typeOf(ta.X)
		}
	case *ast.AssignStmt:
		if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
			src = g.genExpr(ta.X)
			srcType = g.typeOf(ta.X)
		}
	}
	for _, st := range s.Body.List {
		clause, ok := st.(*ast.CaseClause)
		if !ok {
			continue
		}
		// The per-clause implicit variable narrows the scrutinee
		// (rule type-switch); flow is a copy.
		if obj := g.info.Implicits[clause]; obj != nil {
			g.assignTo(g.local(obj), obj.Type(), src, srcType)
		}
		for _, bst := range clause.Body {
			g.genStmt(bst)
		}
	}
}

// ---------- expressions ----------

// genExpr generates constraints for e and returns the variable holding
// its (pointer) value; pointer-free expressions return the shared $void.
func (g *generator) genExpr(e ast.Expr) uint32 {
	switch e := e.(type) {
	case *ast.Ident:
		return g.genIdent(e)
	case *ast.BasicLit:
		return g.voidVar
	case *ast.ParenExpr:
		return g.genExpr(e.X)
	case *ast.FuncLit:
		return g.genFuncLit(e)
	case *ast.CompositeLit:
		return g.genCompositeLit(e, false)
	case *ast.SelectorExpr:
		return g.genSelector(e)
	case *ast.IndexExpr:
		return g.genIndexExpr(e)
	case *ast.IndexListExpr:
		// Generic instantiation F[T1, T2]: the value is the (single,
		// collapsed) generic function object.
		return g.genExpr(e.X)
	case *ast.SliceExpr:
		return g.genSliceExpr(e)
	case *ast.StarExpr:
		v := g.genExpr(e.X)
		return g.read(lvalue{base: v, deref: true})
	case *ast.UnaryExpr:
		return g.genUnary(e)
	case *ast.BinaryExpr:
		g.genExpr(e.X)
		g.genExpr(e.Y)
		return g.voidVar
	case *ast.CallExpr:
		return g.genCall(e)
	case *ast.TypeAssertExpr:
		// i.(T): the asserted value is the interface's payload; a copy
		// keeps every possible pointee (rule type-assert).
		v := g.genExpr(e.X)
		if !g.pointerLike(g.typeOf(e)) {
			return g.voidVar
		}
		t := g.temp()
		g.assignTo(t, g.typeOf(e), v, g.typeOf(e.X))
		return t
	case *ast.KeyValueExpr:
		return g.genExpr(e.Value)
	}
	return g.voidVar
}

func (g *generator) genIdent(e *ast.Ident) uint32 {
	if e.Name == "_" {
		return g.voidVar
	}
	obj := g.info.Uses[e]
	if obj == nil {
		obj = g.info.Defs[e]
	}
	switch obj := obj.(type) {
	case *types.Var:
		if !g.pointerLike(obj.Type()) {
			return g.voidVar
		}
		return g.objVar(obj)
	case *types.Func:
		return g.objVar(obj)
	case *types.Nil, *types.Const, *types.TypeName, *types.Builtin, nil:
		return g.voidVar
	}
	return g.voidVar
}

// genFuncLit creates a fresh function object for a closure and generates
// its body in place. Captured variables need no special constraints: the
// flow-insensitive model gives inner and outer references the same
// constraint variable (rule closure).
func (g *generator) genFuncLit(e *ast.FuncLit) uint32 {
	sig, _ := g.typeOf(e).(*types.Signature)
	name := g.curFn + "::func@" + g.pos(e.Pos())
	if g.curFn == "" {
		name = "func@" + g.pos(e.Pos())
	}
	fi := &funcInfo{recv: noVar, name: name}
	if sig != nil {
		fi.nparams = sig.Params().Len()
		fi.variadic = sig.Variadic()
	}
	fi.id = g.prog.AddFunc(name, fi.nparams)
	g.unit.Funcs[name] = fi.id

	save, saveInfo := g.curFn, g.curInfo
	g.curFn, g.curInfo = name, fi
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			g.vars[sig.Params().At(i)] = fi.id + constraint.ParamOffset + uint32(i)
		}
		var named []uint32
		for i := 0; i < sig.Results().Len(); i++ {
			r := sig.Results().At(i)
			if r.Name() != "" && r.Name() != "_" {
				named = append(named, g.local(r))
			}
		}
		g.genStmt(e.Body)
		for _, id := range named {
			g.prog.AddCopy(fi.id+constraint.RetOffset, id)
		}
	} else {
		g.genStmt(e.Body)
	}
	g.curFn, g.curInfo = save, saveInfo

	t := g.temp()
	g.prog.AddAddrOf(t, fi.id)
	return t
}

// genCompositeLit lowers T{...}: slices and maps allocate a backing
// object the elements are copied into and evaluate to its address; struct
// and array literals collapse their elements into one value variable
// (rules lit-slice/lit-map/lit-struct). addrOf marks the &T{...} form,
// which turns the struct value into an addressed object.
func (g *generator) genCompositeLit(e *ast.CompositeLit, addrOf bool) uint32 {
	t := g.typeOf(e)
	elem := func(kv ast.Expr) (ast.Expr, ast.Expr) { // key, value
		if kv, ok := kv.(*ast.KeyValueExpr); ok {
			return kv.Key, kv.Value
		}
		return nil, kv
	}
	switch u := typeUnderlying(t).(type) {
	case *types.Slice:
		obj := g.object("lit", e.Pos())
		for _, el := range e.Elts {
			_, val := elem(el)
			v := g.genExpr(val)
			g.assignTo(obj, u.Elem(), v, g.typeOf(val))
		}
		tv := g.temp()
		g.prog.AddAddrOf(tv, obj)
		return tv
	case *types.Map:
		obj := g.object("lit", e.Pos())
		for _, el := range e.Elts {
			key, val := elem(el)
			if key != nil {
				kv := g.genExpr(key)
				g.assignTo(obj, u.Key(), kv, g.typeOf(key))
			}
			v := g.genExpr(val)
			g.assignTo(obj, u.Elem(), v, g.typeOf(val))
		}
		tv := g.temp()
		g.prog.AddAddrOf(tv, obj)
		return tv
	case *types.Struct:
		obj := g.object("lit", e.Pos())
		for _, el := range e.Elts {
			_, val := elem(el)
			v := g.genExpr(val)
			g.assignTo(obj, nil, v, g.typeOf(val))
		}
		if addrOf {
			tv := g.temp()
			g.prog.AddAddrOf(tv, obj)
			return tv
		}
		return obj
	case *types.Array:
		obj := g.object("lit", e.Pos())
		for _, el := range e.Elts {
			_, val := elem(el)
			v := g.genExpr(val)
			g.assignTo(obj, u.Elem(), v, g.typeOf(val))
		}
		if addrOf {
			tv := g.temp()
			g.prog.AddAddrOf(tv, obj)
			return tv
		}
		return obj
	}
	for _, el := range e.Elts {
		_, val := elem(el)
		g.genExpr(val)
	}
	return g.voidVar
}

// genSelector lowers x.f reads, method values and qualified references.
func (g *generator) genSelector(e *ast.SelectorExpr) uint32 {
	sel, ok := g.info.Selections[e]
	if !ok {
		// Qualified reference pkg.V / pkg.F.
		if obj := g.info.Uses[e.Sel]; obj != nil {
			if v, isVar := obj.(*types.Var); isVar && !g.pointerLike(v.Type()) {
				return g.voidVar
			}
			return g.objVar(obj)
		}
		g.genExpr(e.X)
		return g.voidVar
	}
	switch sel.Kind() {
	case types.FieldVal:
		if !g.pointerLike(sel.Type()) {
			g.genExpr(e.X)
			return g.voidVar
		}
		return g.read(g.genSelectorLValue(e))
	case types.MethodVal:
		// x.M as a value: the method's function object, receiver bound
		// here (rule method-value). From an interface the function
		// objects already live in the interface value, so i.M is a copy
		// (method-name-insensitive, like interface dispatch).
		if isInterface(g.typeOf(e.X)) {
			v := g.genExpr(e.X)
			if v == g.voidVar {
				return g.voidVar
			}
			t := g.temp()
			g.prog.AddCopy(t, v)
			return t
		}
		m, _ := sel.Obj().(*types.Func)
		if m == nil {
			return g.voidVar
		}
		fi := g.funcInfoFor(m)
		x := g.genExpr(e.X)
		g.bindRecv(fi, m, x, g.typeOf(e.X))
		t := g.temp()
		g.prog.AddAddrOf(t, fi.id)
		return t
	case types.MethodExpr:
		// T.M as a value: a thunk function object whose first parameter
		// is the receiver (rule method-expr).
		m, _ := sel.Obj().(*types.Func)
		if m == nil {
			return g.voidVar
		}
		return g.methodThunk(m, e.Pos())
	}
	return g.voidVar
}

// bindRecv copies a receiver value into a method's receiver variable,
// loading when a pointer meets a value receiver and taking the address
// when a value meets a pointer receiver.
func (g *generator) bindRecv(fi *funcInfo, m *types.Func, x uint32, xType types.Type) {
	if fi.recv == noVar || x == g.voidVar {
		return
	}
	sig, _ := m.Origin().Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		g.prog.AddCopy(fi.recv, x)
		return
	}
	recvPtr := isPointer(sig.Recv().Type())
	xPtr := isPointer(xType)
	switch {
	case recvPtr && !xPtr && xType != nil && !isInterface(xType):
		// Auto address-of: x.M() with pointer receiver on addressable x.
		g.prog.AddAddrOf(fi.recv, x)
	case !recvPtr && xPtr:
		t := g.temp()
		g.addLoad(t, x)
		g.prog.AddCopy(fi.recv, t)
	default:
		g.prog.AddCopy(fi.recv, x)
	}
}

// methodThunk builds (caching would be harmless but positions keep names
// unique) the method-expression wrapper: params [recv, p0..pn-1] forward
// into the method's receiver and parameter slots, the return slot aliases
// the method's.
func (g *generator) methodThunk(m *types.Func, pos token.Pos) uint32 {
	fi := g.funcInfoFor(m)
	name := fi.name + "$thunk@" + g.pos(pos)
	th := g.prog.AddFunc(name, fi.nparams+1)
	g.unit.Funcs[name] = th
	if fi.recv != noVar {
		g.prog.AddCopy(fi.recv, th+constraint.ParamOffset)
	}
	for i := 0; i < fi.nparams; i++ {
		g.prog.AddCopy(fi.id+constraint.ParamOffset+uint32(i), th+constraint.ParamOffset+uint32(i+1))
	}
	g.prog.AddCopy(th+constraint.RetOffset, fi.id+constraint.RetOffset)
	t := g.temp()
	g.prog.AddAddrOf(t, th)
	return t
}

func (g *generator) genIndexExpr(e *ast.IndexExpr) uint32 {
	// Generic instantiation F[T] in expression position.
	if tv, ok := g.info.Types[e.Index]; ok && tv.IsType() {
		if _, isSig := typeUnderlying(g.typeOf(e)).(*types.Signature); isSig {
			return g.genExpr(e.X)
		}
	}
	if !g.pointerLike(g.typeOf(e)) {
		g.genExpr(e.X)
		g.genExpr(e.Index)
		return g.voidVar
	}
	return g.read(g.genIndexLValue(e))
}

// genSliceExpr lowers s[lo:hi]: the result shares the backing store, so
// slicing a slice/pointer is an alias copy and slicing an addressable
// array takes its address (rule slice-expr).
func (g *generator) genSliceExpr(e *ast.SliceExpr) uint32 {
	for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
		if idx != nil {
			g.genExpr(idx)
		}
	}
	xt := g.typeOf(e.X)
	switch typeUnderlying(xt).(type) {
	case *types.Slice, *types.Pointer:
		v := g.genExpr(e.X)
		if v == g.voidVar {
			return g.voidVar
		}
		t := g.temp()
		g.prog.AddCopy(t, v)
		return t
	case *types.Array:
		lv := g.genLValue(e.X)
		if lv.deref {
			// The array lives inside a pointed-to object; the slice
			// aliases that object.
			t := g.temp()
			g.prog.AddCopy(t, lv.base)
			return t
		}
		t := g.temp()
		g.prog.AddAddrOf(t, lv.base)
		return t
	}
	g.genExpr(e.X)
	return g.voidVar // strings
}

func (g *generator) genUnary(e *ast.UnaryExpr) uint32 {
	switch e.Op {
	case token.AND:
		if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
			return g.genCompositeLit(cl, true)
		}
		lv := g.genLValue(e.X)
		if lv.deref {
			return lv.base // &*p ≡ p, &s[i] ≡ s (same backing object)
		}
		t := g.temp()
		g.prog.AddAddrOf(t, lv.base)
		return t
	case token.ARROW: // <-ch
		ch := g.genExpr(e.X)
		if !g.pointerLike(elemTypeOf(g.typeOf(e.X))) {
			return g.voidVar
		}
		return g.read(lvalue{base: ch, deref: true})
	default:
		g.genExpr(e.X)
		return g.voidVar
	}
}
