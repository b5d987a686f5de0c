package diurnal

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the internal exports and exported methods that
// keep no non-test caller on purpose, each with its reason.
var exportAllowlist = map[string]string{
	"internal/core.BlockError.Unwrap": "errors.Is and errors.As reach a " +
		"block's cause through it, by an interface package errors keeps " +
		"unexported",
	"internal/core.WorldResult.PeakDay": "public: the root package's " +
		"Report is an alias of WorldResult, so this is facade API",
	"internal/faults.FS.Injected": "the count other packages' tests " +
		"assert a fault fired with; a test helper can only be shared from " +
		"a non-test file",
	"internal/faults.FS.Written": "the byte count other packages' tests " +
		"meter writes with; a test helper can only be shared from a " +
		"non-test file",
	"internal/health.NewFake": "the fake clock other packages' tests " +
		"drive the breaker with; a test helper can only be shared from a " +
		"non-test file",
	"internal/health.Fake.Advance": "moves the fake clock NewFake " +
		"builds; same reason",
	"internal/netsim.ActiveCache.Block": "probe's reference oracles, " +
		"verbatim copies of the previous round code, read the block " +
		"through it",
	"internal/outage.Unknown": "the zero State: its position in the iota " +
		"block fixes the values of Up and Down",
	"internal/reconstruct.SanitizeReport.Merge": "sums per-stream " +
		"reports for core's test oracle and reconstruct's tests; without " +
		"it each keeps its own copy of the four-field sum",
}

// TestExportsHaveCallers holds non-test code to code that runs: every
// exported package-level func, type, var or const declared under
// internal/, and every exported method of a type declared there, must be
// used by some non-test file of the module outside its own declaration.
// A method counts as used when non-test code selects it (a call or a
// method value), or when its receiver type implements an interface that
// asks for it: one the module's non-test code mentions, named or
// anonymous, a named interface of a standard-library package the module
// imports, or error. A type's own method receivers are no use of it.
// Module packages are type-checked from source, the standard library
// through its export data. Interface methods and the root package's
// funcs and methods are not checked; TestKnobsHaveSetters checks fields,
// the root package's included. Each internal package is a subtest.
func TestExportsHaveCallers(t *testing.T) {
	m := loadModule(t)
	m.eachInternal(t, func(t *testing.T, p string) {
		for _, key := range m.unused(p) {
			if _, ok := exportAllowlist[key]; !ok {
				t.Errorf("%s is exported but no non-test file uses it: delete it, "+
					"move it into a _test.go file, or allowlist it with a reason", key)
			}
		}
	})
	for key := range exportAllowlist {
		if !m.names(key) {
			t.Errorf("allowlist entry %s names nothing", key)
		}
	}
}

// loadModule type-checks every package of the module from its non-test
// source.
func loadModule(t *testing.T) *moduleChecker {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	m := &moduleChecker{
		root:     root,
		module:   "github.com/diurnalnet/diurnal",
		fset:     token.NewFileSet(),
		std:      importer.Default(),
		pkgs:     map[string]*types.Package{},
		files:    map[string][]*ast.File{},
		uses:     map[types.Object][]token.Pos{},
		ifaces:   map[string][]*types.Interface{},
		seen:     map[types.Type]bool{},
		stdPkgs:  map[string]*types.Package{},
		reads:    map[*types.Var]bool{},
		writes:   map[*types.Var]bool{},
		forwards: map[*types.Var][]*types.Var{},
	}
	if m.paths, err = m.packagePaths(); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.paths {
		var noGo *build.NoGoError
		if _, err := m.Import(p); err != nil && !errors.As(err, &noGo) {
			t.Fatal(err)
		}
	}
	m.addStdInterfaces()
	return m
}

// eachInternal runs check as one subtest per package under internal/,
// named for its path below internal/.
func (m *moduleChecker) eachInternal(t *testing.T, check func(t *testing.T, p string)) {
	for _, p := range m.paths {
		rel := strings.TrimPrefix(p, m.module+"/")
		if m.pkgs[p] == nil || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		t.Run(strings.TrimPrefix(rel, "internal/"), func(t *testing.T) { check(t, p) })
	}
}

// unused lists, sorted, the keys ("internal/pkg.Name" or
// "internal/pkg.Type.Method") of package p's exports and exported methods
// that no non-test code uses.
func (m *moduleChecker) unused(p string) []string {
	rel := strings.TrimPrefix(p, m.module+"/")
	files := m.files[p]
	scope := m.pkgs[p].Scope()
	var dead []string
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !m.usedOutside(obj, files) {
			dead = append(dead, rel+"."+name)
		}
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj {
			continue
		}
		for i := range named.NumMethods() {
			fn := named.Method(i)
			if fn.Exported() && !m.usedOutside(fn, files) && !m.satisfies(named, fn.Name()) {
				dead = append(dead, rel+"."+name+"."+fn.Name())
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// names reports whether an allowlist key names a package-level object or
// a method of a package-level type.
func (m *moduleChecker) names(key string) bool {
	p, name, _ := strings.Cut(key, ".")
	pkg := m.pkgs[m.module+"/"+p]
	if pkg == nil {
		return false
	}
	typ, method, isMethod := strings.Cut(name, ".")
	obj := pkg.Scope().Lookup(typ)
	if obj == nil || !isMethod {
		return obj != nil
	}
	fn, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, pkg, method)
	_, ok := fn.(*types.Func)
	return ok
}

// satisfies reports whether *t implements an interface with the given
// method among those the module mentions or imports.
func (m *moduleChecker) satisfies(t *types.Named, method string) bool {
	for _, iface := range m.ifaces[method] {
		if types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// addInterface indexes an interface type by its method names, once.
func (m *moduleChecker) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if named, isNamed := t.(*types.Named); !ok || m.seen[t] ||
		isNamed && named.TypeParams().Len() > 0 {
		return
	}
	m.seen[t] = true
	for i := range iface.NumMethods() {
		name := iface.Method(i).Name()
		m.ifaces[name] = append(m.ifaces[name], iface)
	}
}

// addStdInterfaces indexes error and every named interface of the
// standard-library packages the module's non-test code imports.
func (m *moduleChecker) addStdInterfaces() {
	m.addInterface(types.Universe.Lookup("error").Type())
	for _, pkg := range m.stdPkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				m.addInterface(tn.Type())
			}
		}
	}
}

// moduleChecker type-checks the module's non-test files package by
// package, recording every identifier's use of a package-level object or
// of a method of a module type, and every interface type the code
// mentions.
type moduleChecker struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File
	uses         map[types.Object][]token.Pos
	ifaces       map[string][]*types.Interface // by method name
	seen         map[types.Type]bool           // interfaces already in ifaces
	stdPkgs      map[string]*types.Package     // standard-library imports
	paths        []string                      // the module's packages
	reads        map[*types.Var]bool           // struct fields non-test code reads
	writes       map[*types.Var]bool           // and writes (see recordFields)
	forwards     map[*types.Var][]*types.Var   // and copies from other fields
}

// packagePaths lists the import paths of the module's directories holding
// Go files, skipping testdata and hidden or underscore-prefixed
// directories as the go tool does.
func (m *moduleChecker) packagePaths() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(m.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != m.root && (name == "testdata" || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(p, "*.go")); len(matches) > 0 {
			rel, _ := filepath.Rel(m.root, p)
			paths = append(paths, path.Join(m.module, filepath.ToSlash(rel)))
		}
		return nil
	})
	return paths, err
}

// Import type-checks a module package from its non-test source (files
// the current build context selects) and hands anything else to the
// standard library's importer.
func (m *moduleChecker) Import(importPath string) (*types.Package, error) {
	if importPath != m.module && !strings.HasPrefix(importPath, m.module+"/") {
		pkg, err := m.std.Import(importPath)
		if err == nil {
			m.stdPkgs[importPath] = pkg
		}
		return pkg, err
	}
	if pkg, ok := m.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(
		strings.TrimPrefix(importPath, m.module), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(importPath, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	receivers := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if receivers[id] || obj.Pkg() == nil {
			continue
		}
		fn, isFunc := obj.(*types.Func)
		method := isFunc && fn.Type().(*types.Signature).Recv() != nil
		if obj.Parent() == obj.Pkg().Scope() || method && strings.HasPrefix(obj.Pkg().Path(), m.module) {
			m.uses[obj] = append(m.uses[obj], id.Pos())
		}
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			m.addInterface(tv.Type)
		}
	}
	m.recordFields(files, info)
	m.pkgs[importPath] = pkg
	m.files[importPath] = files
	return pkg, nil
}

// usedOutside reports whether obj has a use outside its own declaration
// in files, the files of the package that declares it. A type's methods
// are declarations of their own, so a use in one's body counts.
func (m *moduleChecker) usedOutside(obj types.Object, files []*ast.File) bool {
	var own ast.Node
	for _, f := range files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.Pos() == obj.Pos() {
				own = d
			}
			if d, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range d.Specs {
					if spec.Pos() <= obj.Pos() && obj.Pos() < spec.End() {
						own = spec
					}
				}
			}
		}
	}
	for _, pos := range m.uses[obj] {
		if pos < own.Pos() || pos >= own.End() {
			return true
		}
	}
	return false
}
