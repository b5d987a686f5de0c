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

// exportAllowlist names the internal exports that keep no non-test caller
// on purpose, each with its reason.
var exportAllowlist = map[string]string{
	"internal/changepoint.RestoreOnline": "restores the online detector's " +
		"state; the daemon's reopen from detector state (ROADMAP item 6) " +
		"will call it, and its round-trip test pins the encoding until then",
	"internal/health.NewFake": "the fake clock other packages' tests " +
		"drive the breaker with; a test helper can only be shared from a " +
		"non-test file",
	"internal/outage.Unknown": "the zero State: its position in the iota " +
		"block fixes the values of Up and Down",
}

// TestExportsHaveCallers holds non-test code to code that runs: every
// exported package-level func, type, var or const declared under
// internal/ must be used by some non-test file of the module outside its
// own declaration. Module packages are type-checked from source, the
// standard library through its export data; methods, fields and the root
// package's API are not checked.
func TestExportsHaveCallers(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	const module = "github.com/diurnalnet/diurnal"
	m := &moduleChecker{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*types.Package{},
		files:  map[string][]*ast.File{},
		uses:   map[types.Object][]token.Pos{},
	}
	paths, err := m.packagePaths()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		var noGo *build.NoGoError
		if _, err := m.Import(p); err != nil && !errors.As(err, &noGo) {
			t.Fatal(err)
		}
	}

	var dead []string
	for p, files := range m.files {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		scope := m.pkgs[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			key := strings.TrimPrefix(p, module+"/") + "." + name
			if _, ok := exportAllowlist[key]; ok {
				continue
			}
			if !m.usedOutside(obj, files) {
				dead = append(dead, key)
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file uses it: delete it, "+
			"move it into a _test.go file, or allowlist it with a reason", key)
	}
	for key := range exportAllowlist {
		if p, name, _ := strings.Cut(key, "."); m.pkgs[module+"/"+p] == nil ||
			m.pkgs[module+"/"+p].Scope().Lookup(name) == nil {
			t.Errorf("allowlist entry %s names nothing", key)
		}
	}
}

// moduleChecker type-checks the module's non-test files package by
// package, recording every identifier's use of a package-level object.
type moduleChecker struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File
	uses         map[types.Object][]token.Pos
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
		return m.std.Import(importPath)
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(importPath, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	for id, obj := range info.Uses {
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			m.uses[obj] = append(m.uses[obj], id.Pos())
		}
	}
	m.pkgs[importPath] = pkg
	m.files[importPath] = files
	return pkg, nil
}

// usedOutside reports whether obj has a use outside its own declaration
// in files, the files of the package that declares it. A type's methods
// are declarations of their own, so a use in one counts.
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
