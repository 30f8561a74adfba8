package treecheck

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// setting is one exported field, declared under internal/, of a named
// struct type: a value a program can set.
type setting struct {
	field *types.Var
	owner *types.TypeName
	name  string // "tcpsim.Config.MSS", relative to internal/
	set   bool
}

// defaultsMethods name the methods that fill a struct's zero fields. A
// field set only there holds one value in every program.
var defaultsMethods = map[string]bool{"Defaults": true, "defaults": true, "withDefaults": true}

// settings indexes the exported fields of every named struct type under
// internal/ and marks the ones non-test code sets: as a composite-literal
// element, keyed or positional, or as an assignment target. Three writes
// complete a value instead of setting one, so they do not count: a write
// in a defaults method of the field's own type; a fill-in, a write in the
// body of an if whose condition compares the same field with its zero
// value (if c.X == 0 { c.X = … }); and a constant written by a top-level
// Default… function that returns the field's type. Embedded fields and
// fields with a json tag are not checked: promotion and the decoders'
// reflection set them.
func (x *index) settings() []*setting {
	byVar := map[*types.Var]*setting{}
	var all []*setting
	for _, p := range x.packages() {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() || f.Pkg() != p.types || byVar[f] != nil ||
					strings.Contains(st.Tag(i), "json:") {
					continue
				}
				s := &setting{field: f, owner: tn, name: rel(p.path) + "." + name + "." + f.Name()}
				byVar[f] = s
				all = append(all, s)
			}
		}
	}
	// fillIn reports whether the node path ends inside the body of an if
	// whose condition compares v with its zero value.
	fillIn := func(p *pkg, v *types.Var, path []ast.Node) bool {
		for i, n := range path[:len(path)-1] {
			if s, ok := n.(*ast.IfStmt); ok && path[i+1] == s.Body && comparesWithZero(p, s.Cond, v) {
				return true
			}
		}
		return false
	}
	// returns reports whether fn returns a value of type tn, or a pointer
	// to one.
	returns := func(p *pkg, fn *ast.FuncDecl, tn *types.TypeName) bool {
		res := p.info.Defs[fn.Name].(*types.Func).Type().(*types.Signature).Results()
		for i := 0; i < res.Len(); i++ {
			if n := namedOf(res.At(i).Type()); n != nil && n.Obj() == tn {
				return true
			}
		}
		return false
	}
	// mark records a write of val to field v; val is nil when the write
	// has no single value (an increment, a multi-value assignment).
	mark := func(p *pkg, v *types.Var, val ast.Expr, fn *ast.FuncDecl, path []ast.Node) {
		s := byVar[v.Origin()]
		if s == nil || s.set || fillIn(p, s.field, path) {
			return
		}
		if fn != nil && fn.Recv != nil && defaultsMethods[fn.Name.Name] {
			if recv := p.info.Defs[fn.Name].(*types.Func).Type().(*types.Signature).Recv(); namedOf(recv.Type()).Obj() == s.owner {
				return
			}
		}
		if fn != nil && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Default") && val != nil &&
			p.info.Types[val].Value != nil && returns(p, fn, s.owner) {
			return
		}
		s.set = true
	}
	// field is the field an identifier names, if any.
	field := func(p *pkg, id *ast.Ident) *types.Var {
		if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// target is the field an assignment's left-hand side writes, if any.
	target := func(p *pkg, e ast.Expr) *types.Var {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return field(p, s.Sel)
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
						st, _ := p.info.Types[s].Type.Underlying().(*types.Struct)
						for i, el := range s.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									if v := field(p, id); v != nil {
										mark(p, v, kv.Value, fn, path)
									}
								}
							} else if st != nil {
								// A positional element sets the field in its place.
								mark(p, st.Field(i), el, fn, path)
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range s.Lhs {
							if v := target(p, lhs); v != nil {
								var val ast.Expr
								if s.Tok == token.ASSIGN && len(s.Rhs) == len(s.Lhs) {
									val = s.Rhs[i]
								}
								mark(p, v, val, fn, path)
							}
						}
					case *ast.IncDecStmt:
						if v := target(p, s.X); v != nil {
							mark(p, v, nil, fn, path)
						}
					}
					return true
				})
			}
		}
	}
	return all
}

// comparesWithZero reports whether expression e holds a comparison
// v == zero, with zero the constant 0, "" or false, or nil.
func comparesWithZero(p *pkg, e ast.Expr, v *types.Var) bool {
	isField := func(e ast.Expr) bool {
		s, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		u, ok := p.info.Uses[s.Sel].(*types.Var)
		return ok && u.Origin() == v
	}
	isZero := func(e ast.Expr) bool {
		tv := p.info.Types[e]
		if tv.IsNil() {
			return true
		}
		switch c := tv.Value; {
		case c == nil:
			return false
		case c.Kind() == constant.String:
			return constant.StringVal(c) == ""
		case c.Kind() == constant.Bool:
			return !constant.BoolVal(c)
		default:
			return constant.Sign(c) == 0
		}
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.EQL &&
			(isField(b.X) && isZero(b.Y) || isField(b.Y) && isZero(b.X)) {
			found = true
		}
		return !found
	})
	return found
}

// TestEverySettingIsSet fails on every exported field, declared under
// internal/, of a struct type that no non-test code (bench/ included)
// sets outside its type's defaults: every program runs it at one value,
// so it is a constant, or a test seam that need not be exported.
func TestEverySettingIsSet(t *testing.T) {
	x := load(t)
	all := x.settings()
	for _, s := range all {
		if !s.set {
			t.Errorf("%s: %s is set by no non-test code outside its defaults: make it a constant, or unexported if a test must set it",
				x.fset.Position(s.field.Pos()), s.name)
		}
	}
	t.Logf("%d exported settable fields under internal/", len(all))
}
