package diurnal

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knobAllowlist names the exported struct fields under internal/ that
// non-test code reads and no non-test code sets, each with its reason. A
// key is "internal/pkg.Type.Field", "internal/pkg.Type" for every field
// of a struct type, or "internal/pkg" for every field of a package.
var knobAllowlist = map[string]string{
	"internal/core.Config.SampleStep": "RunSignature gob-signs Config, so " +
		"dropping a field re-signs every checkpoint, ledger, WAL and " +
		"snapshot and breaks the goldens; it goes with the one fingerprint " +
		"break of ROADMAP item 3, unless item 14's ablation sets it first",
	"internal/core.Config.CUSUM": "signed by RunSignature, as SampleStep; " +
		"ROADMAP item 14's ablation varies the drift",
	"internal/core.Config.STLOuter": "signed by RunSignature, as " +
		"SampleStep; goes with ROADMAP item 3's fingerprint break",
	"internal/core.Config.MinChangeAddresses": "signed by RunSignature, " +
		"as SampleStep; goes with ROADMAP item 3's fingerprint break",
	"internal/core.Config.BoundaryGuardDays": "signed by RunSignature, " +
		"as SampleStep; goes with ROADMAP item 3's fingerprint break",
	"internal/stream.Config.Clock": "test seam: tests drive the daemon's " +
		"lease and watchdog timing with a fake clock",
	"internal/shard.Options.Clock": "test seam: tests expire leases with a " +
		"fake clock",
	"internal/serve.Config.FS": "test seam: tests fault the snapshot swap " +
		"and retention paths through a faults.FS",
	"internal/faults": "test harness: the fault injectors are configured " +
		"by the tests and experiments that arm them, field by field; " +
		"this covers Engine.Clock, its test seam",
	"internal/chaos": "test harness: the kill-and-resume cells are " +
		"configured by the soaks that run them",
	"internal/outage.Params": "bench/staged.go passes outage.Params{} and " +
		"bench/ is frozen between benchmark changes; the certificate " +
		"tests vary every field",
}

// TestKnobsHaveSetters holds every option to a caller that sets it: if
// non-test code reads an exported field of a struct type declared under
// internal/, some non-test code must also write it. A write is an
// element of a keyed or positional composite literal, the left side of
// an assignment, the operand of ++ or --, or the operand of & (a flag
// binding); writes inside the field's own type's withDefaults or
// WithDefaults do not count, since a default alone is a constant. A field
// that only its defaults set is made a constant, or an unexported field
// where an in-package test needs another value. Each internal package is
// a subtest.
func TestKnobsHaveSetters(t *testing.T) {
	m := loadModule(t)
	m.eachInternal(t, func(t *testing.T, p string) {
		rel := strings.TrimPrefix(p, m.module+"/")
		if _, ok := knobAllowlist[rel]; ok {
			return
		}
		for _, key := range m.unset(p) {
			_, ok := knobAllowlist[key]
			if _, typeOK := knobAllowlist[key[:strings.LastIndex(key, ".")]]; !ok && !typeOK {
				t.Errorf("%s is read but no non-test code sets it: make it a constant, "+
					"set it from a caller, or allowlist it with a reason", key)
			}
		}
	})
	for key := range knobAllowlist {
		if !m.namesField(key) {
			t.Errorf("allowlist entry %s names no package or exported field", key)
		}
	}
}

// unset lists, sorted, the keys ("internal/pkg.Type.Field") of the
// exported fields of package p's struct types that non-test code reads
// and never writes.
func (m *moduleChecker) unset(p string) []string {
	rel := strings.TrimPrefix(p, m.module+"/")
	scope := m.pkgs[p].Scope()
	var dead []string
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if f.Exported() && m.reads[f] && !m.writes[f] {
				dead = append(dead, rel+"."+name+"."+f.Name())
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// namesField reports whether an allowlist key names a module package,
// one of its package-level struct types, or an exported field of one.
func (m *moduleChecker) namesField(key string) bool {
	p, name, isType := strings.Cut(key, ".")
	pkg := m.pkgs[m.module+"/"+p]
	if pkg == nil || !isType {
		return pkg != nil
	}
	typ, field, isField := strings.Cut(name, ".")
	tn, ok := pkg.Scope().Lookup(typ).(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok || !isField {
		return ok
	}
	for i := range st.NumFields() {
		if f := st.Field(i); f.Name() == field && f.Exported() {
			return true
		}
	}
	return false
}

// recordFields records, for every struct field that files select or key
// in a composite literal, whether the access reads or writes it (see
// TestKnobsHaveSetters). Fields of generic types are recorded at their
// origin.
func (m *moduleChecker) recordFields(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			defaults := defaultsOf(decl, info)
			write := func(v *types.Var) {
				if v = v.Origin(); !hasField(defaults, v) {
					m.writes[v] = true
				}
			}
			lhs := map[ast.Expr]bool{}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						lhs[x] = true
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						lhs[n.Key], lhs[n.Value] = true, true
					}
				case *ast.IncDecStmt:
					lhs[n.X] = true
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs[n.X] = true
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(v)
							}
						} else {
							write(st.Field(i))
						}
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.FieldVal {
						break
					}
					if v := sel.Obj().(*types.Var); lhs[n] {
						write(v)
					} else {
						m.reads[v.Origin()] = true
					}
				}
				return true
			})
		}
	}
}

// defaultsOf returns the struct a withDefaults or WithDefaults method
// fills in, or nil if decl is not one.
func defaultsOf(decl ast.Decl, info *types.Info) *types.Struct {
	d, ok := decl.(*ast.FuncDecl)
	if !ok || d.Recv == nil || d.Name.Name != "withDefaults" && d.Name.Name != "WithDefaults" {
		return nil
	}
	recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	st, _ := recv.Underlying().(*types.Struct)
	return st
}

// hasField reports whether v is one of st's fields.
func hasField(st *types.Struct, v *types.Var) bool {
	if st == nil {
		return false
	}
	for i := range st.NumFields() {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}
