package hpcfail_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnreached lists the functions and methods under internal/, cmd/ and
// examples/ that no root reaches but that stay, each with the reason. Keys
// are "pkg.Func" or "pkg.Type.Method", where pkg is the package's directory
// with any "internal/" prefix dropped (so "dist", "serve/client",
// "cmd/simulate").
var keptUnreached = map[string]string{
	// References that tests compare the live code against.
	"dist.RefFitAll":   "reference FitAll the kernel comparison is tested against",
	"lanl.RefGenerate": "reference generator the parallel one is tested against",

	// Methods whose tests use them as the type's natural API.
	"streamstats.QuantileSketch.Add": "one-value insert the sketch's accuracy and fuzz tests drive; the fold calls AddKey",
	"streamstats.QuantileSketch.N":   "count the sketch tests check Add and Merge against",
}

// calledByName lists method names the runtime or the standard library
// calls without the repo's code naming them or an interface type it uses.
var calledByName = map[string]string{
	"String":          "fmt.Stringer",
	"Error":           "error",
	"Unwrap":          "errors.Is and errors.As",
	"MarshalJSON":     "encoding/json.Marshaler",
	"MarshalBinary":   "encoding.BinaryMarshaler",
	"UnmarshalBinary": "encoding.BinaryUnmarshaler",
	"Len":             "sort.Interface and heap.Interface",
	"Less":            "sort.Interface and heap.Interface",
	"Swap":            "sort.Interface and heap.Interface",
	"Push":            "heap.Interface",
	"Pop":             "heap.Interface",
}

// TestInternalExportsReached fails for each function or method declared
// in a non-test file under internal/, cmd/ or examples/ that no root
// reaches. It type-checks the module and the perfbench module from source
// and follows every use, resolved by go/types to the declaration it names,
// from these roots:
//
//   - every main and init, and every package-level variable initializer;
//   - the facade's public API: each exported object of package hpcfail,
//     plus the exported methods of every named type reachable through
//     those objects' signatures and exported fields;
//   - all of perfbench, its test files included;
//   - methods whose name belongs to an interface the code declares or
//     uses, and the names in calledByName;
//   - keptUnreached, which fails on an entry that is not declared or that
//     is reached anyway.
//
// Go forbids importing internal/ from another module, so these roots are
// all the code that can reach one; a function none of them reaches is dead
// weight, whatever the tests do with it.
func TestInternalExportsReached(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	r := newReach(l.fset)
	for _, p := range l.sorted() {
		r.addPackage(p)
	}
	if len(r.checked) == 0 {
		t.Fatal("no functions found under internal/, cmd/ or examples/")
	}
	facade := l.pkgs["hpcfail"]
	if facade == nil {
		t.Fatal("facade package hpcfail not loaded")
	}
	scope := facade.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		if f, ok := obj.(*types.Func); ok {
			r.mark(f)
		}
		r.api(obj.Type())
	}
	for _, d := range r.checked {
		if d.decl.Recv != nil && (r.ifaceNames[d.fn.Name()] || calledByName[d.fn.Name()] != "") {
			r.mark(d.fn)
		}
	}
	r.drain()

	byKey := map[string]*funcDecl{}
	for _, d := range r.checked {
		byKey[d.key] = d
	}
	keys := make([]string, 0, len(keptUnreached))
	for key := range keptUnreached {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		d := byKey[key]
		switch {
		case d == nil:
			t.Errorf("keptUnreached names %s, which is not declared under internal/, cmd/ or examples/", key)
		case r.reached[d.fn]:
			t.Errorf("keptUnreached names %s, which is reached without it", key)
		default:
			r.mark(d.fn)
		}
	}
	r.drain()

	var unreached []string
	for _, d := range r.checked {
		if !r.reached[d.fn] {
			unreached = append(unreached, d.key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("reached by no non-test code: %s", u)
	}
}

// loadedPkg is one type-checked package of the module or of perfbench.
type loadedPkg struct {
	path, dir string
	// qual is the key prefix of its declarations: dir without "internal/".
	qual  string
	tests bool
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// moduleLoader type-checks the module's packages from source on demand and
// hands every other import to the standard library's source importer, so
// each object is the one the using package's types.Info records.
type moduleLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	ctxt build.Context
	pkgs map[string]*loadedPkg
	err  error
}

// loadModule finds every package directory under root (the perfbench
// module, whose path is also hpcfail/perfbench, with its test files) and
// type-checks them all.
func loadModule(root string) (*moduleLoader, error) {
	ctxt := build.Default
	// Cgo files would need a C toolchain; their pure-Go fallbacks type-check
	// the same API.
	ctxt.CgoEnabled = false
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		ctxt: ctxt,
		pkgs: map[string]*loadedPkg{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel := filepath.ToSlash(path)
		p := &loadedPkg{path: "hpcfail", dir: path, qual: rel}
		if rel != "." {
			p.path = "hpcfail/" + rel
			p.qual = strings.TrimPrefix(rel, "internal/")
		}
		p.tests = rel == "perfbench" || strings.HasPrefix(rel, "perfbench/")
		l.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path, p := range l.pkgs {
		if err := l.parse(p); err != nil {
			return nil, err
		}
		if len(p.files) == 0 {
			delete(l.pkgs, path)
		}
	}
	for _, p := range l.sorted() {
		if l.check(p); l.err != nil {
			return nil, l.err
		}
	}
	return l, nil
}

// parse reads p's Go files that the build context selects, test files only
// where p.tests is set, and never an external _test package.
func (l *moduleLoader) parse(p *loadedPkg) error {
	entries, err := filepath.Glob(filepath.Join(p.dir, "*.go"))
	if err != nil {
		return err
	}
	for _, path := range entries {
		name := filepath.Base(path)
		if strings.HasSuffix(name, "_test.go") && !p.tests {
			continue
		}
		ok, err := l.ctxt.MatchFile(p.dir, name)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(f.Name.Name, "_test") {
			p.files = append(p.files, f)
		}
	}
	return nil
}

// check type-checks p once, importing its module dependencies first.
func (l *moduleLoader) check(p *loadedPkg) *types.Package {
	if p.types != nil || l.err != nil {
		return p.types
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	p.types, l.err = conf.Check(p.path, l.fset, p.files, p.info)
	return p.types
}

// Import and ImportFrom make the loader the types.Importer of every
// package it checks.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := l.pkgs[path]; p != nil {
		if pkg := l.check(p); pkg != nil {
			return pkg, nil
		}
		return nil, l.err
	}
	return l.std.ImportFrom(path, dir, mode)
}

// sorted returns the loaded packages in import-path order.
func (l *moduleLoader) sorted() []*loadedPkg {
	ps := make([]*loadedPkg, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].path < ps[j].path })
	return ps
}

// funcDecl is one declared function or method.
type funcDecl struct {
	fn   *types.Func
	key  string
	pos  token.Position
	decl *ast.FuncDecl
	pkg  *loadedPkg
}

// reach is the use graph walk: reached holds every function a root uses,
// directly or through other reached code.
type reach struct {
	fset       *token.FileSet
	decls      map[*types.Func]*funcDecl
	checked    []*funcDecl
	reached    map[*types.Func]bool
	queue      []*types.Func
	ifaceNames map[string]bool
	ifaceSeen  map[types.Type]bool
	apiSeen    map[types.Type]bool
}

func newReach(fset *token.FileSet) *reach {
	return &reach{
		fset:       fset,
		decls:      map[*types.Func]*funcDecl{},
		reached:    map[*types.Func]bool{},
		ifaceNames: map[string]bool{},
		ifaceSeen:  map[types.Type]bool{},
		apiSeen:    map[types.Type]bool{},
	}
}

// addPackage records p's function declarations, marks its roots (main,
// init, package-level initializers, and all of perfbench), and collects
// the method names of every interface type its code mentions.
func (r *reach) addPackage(p *loadedPkg) {
	checked := strings.HasPrefix(p.path, "hpcfail/internal/") ||
		strings.HasPrefix(p.path, "hpcfail/cmd/") ||
		strings.HasPrefix(p.path, "hpcfail/examples/")
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				if decl.Tok == token.VAR {
					r.visit(p, decl)
				}
			case *ast.FuncDecl:
				fn, _ := p.info.Defs[decl.Name].(*types.Func)
				if fn == nil || decl.Name.Name == "init" || decl.Name.Name == "_" {
					r.visit(p, decl)
					continue
				}
				d := &funcDecl{fn: fn, key: p.qual + "." + fn.Name(), pos: r.fset.Position(fn.Pos()), decl: decl, pkg: p}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					d.key = p.qual + "." + recvName(recv.Type()) + "." + fn.Name()
				}
				r.decls[fn] = d
				if checked {
					r.checked = append(r.checked, d)
				}
				if p.tests || (p.types.Name() == "main" && fn.Name() == "main" && decl.Recv == nil) {
					r.mark(fn)
				}
			}
		}
	}
	for _, tv := range p.info.Types {
		r.interfaces(tv.Type)
	}
	for _, obj := range p.info.Defs {
		if obj != nil {
			r.interfaces(obj.Type())
		}
	}
	for _, obj := range p.info.Uses {
		r.interfaces(obj.Type())
	}
}

// recvName returns the name of a receiver's named type.
func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// mark records f, through its generic origin, as reached.
func (r *reach) mark(f *types.Func) {
	f = f.Origin()
	if !r.reached[f] {
		r.reached[f] = true
		r.queue = append(r.queue, f)
	}
}

// drain follows uses out of every reached function until none is new.
func (r *reach) drain() {
	for len(r.queue) > 0 {
		f := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if d := r.decls[f]; d != nil {
			r.visit(d.pkg, d.decl)
		}
	}
}

// visit marks every function or method node uses, by identifier or by
// selection.
func (r *reach) visit(p *loadedPkg, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if f, ok := p.info.Uses[n].(*types.Func); ok {
				r.mark(f)
			}
		case *ast.SelectorExpr:
			if s := p.info.Selections[n]; s != nil {
				if f, ok := s.Obj().(*types.Func); ok {
					r.mark(f)
				}
			}
		}
		return true
	})
}

// interfaces adds the method names of every interface type within t.
func (r *reach) interfaces(t types.Type) {
	r.walk(t, r.ifaceSeen, false)
}

// api marks the exported methods of every named type reachable from t
// through signatures and exported fields: what an importer of the facade
// can call.
func (r *reach) api(t types.Type) {
	r.walk(t, r.apiSeen, true)
}

// walk visits t's structure once per seen set. With api set it marks the
// exported methods of named types and skips unexported fields; otherwise
// it collects interface method names.
func (r *reach) walk(t types.Type, seen map[types.Type]bool, api bool) {
	t = types.Unalias(t)
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if api {
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					r.mark(m)
					r.walk(m.Type(), seen, api)
				}
			}
		}
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				r.walk(args.At(i), seen, api)
			}
		}
		r.walk(t.Underlying(), seen, api)
	case *types.Pointer:
		r.walk(t.Elem(), seen, api)
	case *types.Slice:
		r.walk(t.Elem(), seen, api)
	case *types.Array:
		r.walk(t.Elem(), seen, api)
	case *types.Chan:
		r.walk(t.Elem(), seen, api)
	case *types.Map:
		r.walk(t.Key(), seen, api)
		r.walk(t.Elem(), seen, api)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.walk(t.At(i).Type(), seen, api)
		}
	case *types.Signature:
		r.walk(t.Params(), seen, api)
		r.walk(t.Results(), seen, api)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); !api || f.Exported() {
				r.walk(f.Type(), seen, api)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			m := t.Method(i)
			if !api {
				r.ifaceNames[m.Name()] = true
			}
			r.walk(m.Type(), seen, api)
		}
	}
}
