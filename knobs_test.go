package diurnal

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// knobAllowlist names the exported struct fields that non-test code reads
// and no non-test code sets, each with its reason. A key is
// "internal/pkg.Type.Field", "internal/pkg.Type" for every field of a
// struct type, or "internal/pkg" for every field of a package; the root
// package is "diurnal".
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
	"internal/stream.eventsAck.Count": "a read-only frame: event journals " +
		"compacted before refresh checkpoints open with a 'P' frame, which " +
		"Open still reads; nothing writes one any more",
	"internal/stream.compactBase": "a read-only frame: round journals " +
		"compacted before the journal became append-only hold a 'K' " +
		"base, which Open still reads; nothing writes one any more",
	"internal/stream.compactBlock":  "part of the read-only 'K' frame, as compactBase",
	"internal/stream.compactStream": "part of the read-only 'K' frame, as compactBase",
	"internal/outage.Params": "bench/staged.go passes outage.Params{} and " +
		"bench/ is frozen between benchmark changes; the certificate " +
		"tests vary every field",
}

// TestKnobsHaveSetters holds every option to a caller that sets it: if
// non-test code reads an exported field of a struct type declared under
// internal/ or in the root package, some non-test code must also set it.
// A write is an element of a keyed or positional composite literal, the
// left side of an assignment, the operand of ++ or --, or the operand of
// & (a flag binding); writes inside the field's own type's withDefaults
// or WithDefaults do not count, since a default alone is a constant. A
// write whose value is a read of another exported module field (a
// forwarding copy such as Workers: opts.Workers) sets the field only if
// that field is itself set, transitively; an allowlisted field counts as
// set. A field that only its defaults set is made a constant, or an
// unexported field where an in-package test needs another value. Each
// internal package, and the root package as "diurnal", is a subtest.
func TestKnobsHaveSetters(t *testing.T) {
	m := loadModule(t)
	// allowed reports whether the allowlist names the field's key, its
	// type or its package.
	allowed := func(key string) bool {
		for {
			if _, ok := knobAllowlist[key]; ok {
				return true
			}
			i := strings.LastIndex(key, ".")
			if i < 0 {
				return false
			}
			key = key[:i]
		}
	}
	set := m.setFields(allowed)
	check := func(t *testing.T, p string) {
		for _, key := range m.unset(p, set) {
			t.Errorf("%s is read but no non-test code sets it: make it a constant, "+
				"set it from a caller, or allowlist it with a reason", key)
		}
	}
	m.eachInternal(t, check)
	t.Run("diurnal", func(t *testing.T) { check(t, m.module) })
	for key := range knobAllowlist {
		if !m.namesField(key) {
			t.Errorf("allowlist entry %s names no package or exported field", key)
		}
	}
}

// setFields resolves which struct fields count as set: every field with a
// write of its own or that allowed accepts by key, then, to a fixed
// point, every field a forwarding copy fills from a field already set.
func (m *moduleChecker) setFields(allowed func(key string) bool) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for f := range m.writes {
		set[f] = true
	}
	for _, p := range m.paths {
		m.eachField(p, func(key string, f *types.Var) {
			if allowed(key) {
				set[f] = true
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for f, sources := range m.forwards {
			for _, src := range sources {
				if !set[f] && set[src] {
					set[f], changed = true, true
				}
			}
		}
	}
	return set
}

// unset lists, sorted, the keys ("internal/pkg.Type.Field" or
// "diurnal.Type.Field") of the exported fields of package p's struct types that non-test code reads
// and that set does not hold.
func (m *moduleChecker) unset(p string, set map[*types.Var]bool) []string {
	var dead []string
	m.eachField(p, func(key string, f *types.Var) {
		if f.Exported() && m.reads[f] && !set[f] {
			dead = append(dead, key)
		}
	})
	sort.Strings(dead)
	return dead
}

// eachField calls fn with the key and object of every field of package
// p's package-level struct types (none if p holds no Go package).
func (m *moduleChecker) eachField(p string, fn func(key string, f *types.Var)) {
	pkg := m.pkgs[p]
	if pkg == nil {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				fn(m.rel(p)+"."+name+"."+st.Field(i).Name(), st.Field(i))
			}
		}
	}
}

// rel names a module package as allowlist keys do: its path below the
// module root, or "diurnal" for the root package.
func (m *moduleChecker) rel(p string) string {
	if p == m.module {
		return "diurnal"
	}
	return strings.TrimPrefix(p, m.module+"/")
}

// namesField reports whether an allowlist key names a module package,
// one of its package-level struct types, or an exported field of one.
func (m *moduleChecker) namesField(key string) bool {
	p, name, isType := strings.Cut(key, ".")
	pkg := m.pkgs[m.module+"/"+p]
	if p == "diurnal" {
		pkg = m.pkgs[m.module]
	}
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
// in a composite literal, whether the access reads or writes it, and for
// a write whose value is another exported module field, that field as its
// source (see TestKnobsHaveSetters). Fields of generic types are recorded
// at their origin.
func (m *moduleChecker) recordFields(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			defaults := defaultsOf(decl, info)
			write := func(v *types.Var, value ast.Expr) {
				if v = v.Origin(); hasField(defaults, v) {
					return
				}
				if src := m.forwarded(value, info); src != nil {
					m.forwards[v] = append(m.forwards[v], src)
				} else {
					m.writes[v] = true
				}
			}
			lhs := map[ast.Expr]ast.Expr{} // a written selector's value, or nil
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, x := range n.Lhs {
						lhs[x] = nil
						if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
							lhs[x] = n.Rhs[i]
						}
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						lhs[n.Key], lhs[n.Value] = nil, nil
					}
				case *ast.IncDecStmt:
					lhs[n.X] = nil
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs[n.X] = nil
					}
				case *ast.CompositeLit:
					st, ok := info.TypeOf(n).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								write(v, kv.Value)
							}
						} else {
							write(st.Field(i), elt)
						}
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() != types.FieldVal {
						break
					}
					if value, ok := lhs[n]; ok {
						write(sel.Obj().(*types.Var), value)
					} else {
						m.reads[sel.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}
}

// forwarded returns the exported module field that value reads, or nil
// when value is anything else (a literal, a call, a local, an unexported
// or foreign field).
func (m *moduleChecker) forwarded(value ast.Expr, info *types.Info) *types.Var {
	sel, ok := ast.Unparen(value).(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
		return nil
	}
	v := info.Selections[sel].Obj().(*types.Var).Origin()
	if p := v.Pkg().Path(); !v.Exported() || p != m.module && !strings.HasPrefix(p, m.module+"/") {
		return nil
	}
	return v
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
