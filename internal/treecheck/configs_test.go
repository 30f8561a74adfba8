package treecheck

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// configField is one exported field of a struct type under internal/ named
// Config or ending in Config.
type configField struct {
	field *types.Var
	owner *types.TypeName
	name  string // "tcpsim.Config.MSS", relative to internal/
	set   bool
}

// defaultsMethods name the methods that fill a Config's zero fields. A
// field set only there holds one value in every program.
var defaultsMethods = map[string]bool{"Defaults": true, "defaults": true, "withDefaults": true}

// configFields indexes the exported fields of every Config struct under
// internal/ and marks the ones non-test code sets: as a composite-literal
// key or an assignment target, outside a defaults method of the field's
// own type. A fill-in, a write in the body of an if whose condition reads
// the same field (if c.X == 0 { c.X = … }), completes a value instead of
// setting one, so it does not count.
func (x *index) configFields() []*configField {
	byVar := map[*types.Var]*configField{}
	var all []*configField
	for _, p := range x.packages() {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					cf := &configField{field: f, owner: tn, name: rel(p.path) + "." + name + "." + f.Name()}
					byVar[f] = cf
					all = append(all, cf)
				}
			}
		}
	}
	// fillIn reports whether the node path ends inside the body of an if
	// whose condition reads v.
	fillIn := func(p *pkg, v *types.Var, path []ast.Node) bool {
		for i, n := range path[:len(path)-1] {
			if s, ok := n.(*ast.IfStmt); ok && path[i+1] == s.Body && reads(p, s.Cond, v) {
				return true
			}
		}
		return false
	}
	mark := func(p *pkg, id *ast.Ident, fn *ast.FuncDecl, path []ast.Node) {
		v, ok := p.info.Uses[id].(*types.Var)
		if !ok {
			return
		}
		cf := byVar[v.Origin()]
		if cf == nil || cf.set || fillIn(p, cf.field, path) {
			return
		}
		if fn != nil && fn.Recv != nil && defaultsMethods[fn.Name.Name] {
			if recv := p.info.Defs[fn.Name].(*types.Func).Type().(*types.Signature).Recv(); namedOf(recv.Type()).Obj() == cf.owner {
				return
			}
		}
		cf.set = true
	}
	// target is the field an assignment's left-hand side writes, if any.
	target := func(e ast.Expr) *ast.Ident {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return s.Sel
		}
		return nil
	}
	for _, p := range x.packages() {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				var path []ast.Node // from decl down to the current node
				ast.Inspect(decl, func(n ast.Node) bool {
					if n == nil {
						path = path[:len(path)-1]
						return true
					}
					path = append(path, n)
					switch s := n.(type) {
					case *ast.CompositeLit:
						for _, el := range s.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									mark(p, id, fn, path)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range s.Lhs {
							if id := target(lhs); id != nil {
								mark(p, id, fn, path)
							}
						}
					case *ast.IncDecStmt:
						if id := target(s.X); id != nil {
							mark(p, id, fn, path)
						}
					}
					return true
				})
			}
		}
	}
	return all
}

// reads reports whether expression e uses field v.
func reads(p *pkg, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if u, ok := p.info.Uses[id].(*types.Var); ok && u.Origin() == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestEveryConfigFieldIsSet fails on every exported field of a Config
// struct under internal/ that no non-test code (bench/ included) sets
// outside its type's defaults method: every program runs it at one value,
// so it is a constant, or a test seam that need not be exported.
func TestEveryConfigFieldIsSet(t *testing.T) {
	x := load(t)
	all := x.configFields()
	for _, cf := range all {
		if !cf.set {
			t.Errorf("%s: %s is set by no non-test code outside its defaults: make it a constant, or unexported if a test must set it",
				x.fset.Position(cf.field.Pos()), cf.name)
		}
	}
	t.Logf("%d exported fields in Config structs under internal/", len(all))
}
