package treecheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// structField is one field declared in a struct type of the module's
// non-test code outside bench/.
type structField struct {
	field *types.Var
	name  string // "netem.QueueStats.Drops", relative to internal/
	read  bool
}

// fields indexes the checked struct fields and marks the ones some
// non-test code in the tree (bench/ included) reads. Every use of a field
// is a read except the target of an assignment (x.f = …, x.f[k] = …,
// x.f += …), the target of an increment or decrement and the key of a
// composite literal. The fields of a struct type that is a map key are
// read by every lookup. Embedded, blank and tagged fields are not checked:
// their readers are promotion, layout and reflection.
func (x *index) fields() []*structField {
	byVar := map[*types.Var]*structField{}
	var all []*structField
	for _, p := range x.packages() {
		if p.path == modulePath+"/bench" || strings.HasPrefix(p.path, modulePath+"/bench/") {
			continue
		}
		add := func(st *ast.StructType, owner string) {
			t := p.info.Types[st].Type.(*types.Struct)
			for i := 0; i < t.NumFields(); i++ {
				f := t.Field(i)
				if f.Embedded() || f.Name() == "_" || t.Tag(i) != "" || byVar[f] != nil {
					continue
				}
				sf := &structField{field: f, name: rel(p.path) + "." + owner + "." + f.Name()}
				byVar[f] = sf
				all = append(all, sf)
			}
		}
		// A struct type declaration, then every other struct type (such
		// as a table's element type), which the first case has not added.
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						add(st, n.Name.Name)
					}
				case *ast.StructType:
					add(n, "struct")
				}
				return true
			})
		}
	}
	// A map key's fields are read by every lookup, nested structs too.
	var markKey func(t types.Type)
	markKey = func(t types.Type) {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if sf := byVar[st.Field(i).Origin()]; sf != nil {
				sf.read = true
			}
			markKey(st.Field(i).Type())
		}
	}
	for _, p := range x.packages() {
		written := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.CompositeLit:
					for _, el := range s.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						if id := assigned(lhs); id != nil {
							written[id] = true
						}
					}
				case *ast.IncDecStmt:
					if id := assigned(s.X); id != nil {
						written[id] = true
					}
				case *ast.MapType:
					if tv, ok := p.info.Types[s.Key]; ok {
						markKey(tv.Type)
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				if sf := byVar[v.Origin()]; sf != nil {
					sf.read = true
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return all
}

// assigned is the field an assignment or inc/dec target writes: the
// selector of x.f, x.f[k] or (x.f), or nil when the target is no field.
func assigned(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel
		default:
			return nil
		}
	}
}

// TestEveryFieldIsRead fails on every struct field declared in the
// module's non-test code that no non-test code reads, unless the allowlist
// keeps it as a test oracle or seam, and on every allowlisted field that
// no longer exists or that a program now reads. A field only written is
// state no result depends on: delete it with the writes that keep it up
// to date.
func TestEveryFieldIsRead(t *testing.T) {
	x := load(t)
	_, allow, err := readAllowlist(x)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.name] = true
	}
	all := x.fields()
	byName := map[string]*structField{}
	for _, sf := range all {
		byName[sf.name] = sf
		if !sf.read && !allowed[sf.name] {
			t.Errorf("%s: %s is read by no non-test code: delete it with its writes, or list it under [fields] in testdata/allowlist.txt if it is a test oracle or seam",
				x.fset.Position(sf.field.Pos()), sf.name)
		}
	}
	for _, a := range allow {
		switch sf := byName[a.name]; {
		case sf == nil:
			t.Errorf("allowlist.txt:%d: %s is not a checked struct field", a.line, a.name)
		case sf.read:
			t.Errorf("allowlist.txt:%d: %s is read by non-test code; take it off the list", a.line, a.name)
		}
	}
	t.Logf("%d struct fields, %d on the allowlist", len(all), len(allow))
}
