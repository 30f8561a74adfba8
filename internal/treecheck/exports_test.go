package treecheck

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// export is one exported identifier declared under internal/: a top-level
// type, function, constant or variable, or a method (interface methods
// included).
type export struct {
	obj  types.Object
	name string // "netem.Queue.Stats", relative to internal/
	// decl is the identifier's own declaration; a type's includes its
	// methods. A name inside it does not count as a use.
	decl []span
	used bool
}

type span struct{ from, to token.Pos }

func (e *export) inside(pos token.Pos) bool {
	for _, s := range e.decl {
		if s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedOf returns the named type a receiver or type name denotes.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// exports indexes every exported identifier under internal/ and marks the
// ones some non-test code in the tree names.
func (x *index) exports() []*export {
	byObj := map[types.Object]*export{}
	var all []*export
	add := func(p *pkg, obj types.Object, name string, s span) {
		e := byObj[obj]
		if e == nil {
			e = &export{obj: obj, name: rel(p.path) + "." + name}
			byObj[obj] = e
			all = append(all, e)
		}
		e.decl = append(e.decl, s)
	}
	// A type's declaration spans its methods.
	methodSpans := map[types.Object][]span{}
	for _, p := range x.packages() {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					s := span{d.Pos(), d.End()}
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil {
						if fn.Exported() {
							add(p, fn, fn.Name(), s)
						}
						continue
					}
					tn := namedOf(recv.Type()).Obj()
					methodSpans[tn] = append(methodSpans[tn], s)
					if fn.Exported() {
						add(p, fn, tn.Name()+"."+fn.Name(), s)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							tn := p.info.Defs[s.Name]
							if tn.Exported() {
								add(p, tn, tn.Name(), span{s.Pos(), s.End()})
							}
							it, ok := s.Type.(*ast.InterfaceType)
							if !ok {
								continue
							}
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									if n.IsExported() {
										add(p, p.info.Defs[n], tn.Name()+"."+n.Name, span{m.Pos(), m.End()})
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(p, p.info.Defs[n], n.Name, span{s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}
	for tn, spans := range methodSpans {
		if e := byObj[tn]; e != nil {
			e.decl = append(e.decl, spans...)
		}
	}

	// Direct uses: any name in non-test code outside the declaration.
	usedAnywhere := map[types.Object]bool{}
	for _, p := range x.packages() {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			usedAnywhere[obj] = true
			if e := byObj[obj]; e != nil && !e.used && !e.inside(id.Pos()) {
				e.used = true
			}
		}
	}

	// Uses through an interface: a method counts when non-test code
	// converts a type whose method set holds it to an interface type, and
	// the type implements an interface that declares the method and whose
	// method of that name is called somewhere in the tree, or that is the
	// standard library's (whose callers this index does not read).
	ifaces := x.interfaces(usedAnywhere)
	for _, t := range x.converted() {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			e := byObj[origin(ms.At(i).Obj())]
			if e == nil || e.used {
				continue
			}
			for _, it := range ifaces[e.obj.Name()] {
				if types.Implements(t, it) {
					e.used = true
					break
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return all
}

// converted lists the types whose values non-test code converts to an
// interface type: by an assignment (a send included), an argument, a
// return, a composite-literal element or an explicit conversion. The
// element types and exported field types of a converted type count too:
// fmt and the encoders reach their methods by reflection.
func (x *index) converted() []types.Type {
	seen := map[string]bool{}
	var out []types.Type
	var reach func(t types.Type)
	reach = func(t types.Type) {
		key := types.TypeString(t, nil)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, t)
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			reach(u.Elem())
		case *types.Slice:
			reach(u.Elem())
		case *types.Array:
			reach(u.Elem())
		case *types.Map:
			reach(u.Key())
			reach(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() {
					reach(u.Field(i).Type())
				}
			}
		}
	}
	add := func(from, to types.Type) {
		if from != nil && to != nil && types.IsInterface(to) {
			reach(from)
		}
	}
	for _, p := range x.packages() {
		// values lists the types of es, spreading a multi-value call.
		values := func(es []ast.Expr) []types.Type {
			if len(es) == 1 {
				if t, ok := p.info.TypeOf(es[0]).(*types.Tuple); ok {
					out := make([]types.Type, t.Len())
					for i := range out {
						out[i] = t.At(i).Type()
					}
					return out
				}
			}
			out := make([]types.Type, len(es))
			for i, e := range es {
				out[i] = p.info.TypeOf(e)
			}
			return out
		}
		for _, f := range p.files {
			var path []ast.Node // from the file down to the current node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					path = path[:len(path)-1]
					return true
				}
				path = append(path, n)
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
						for i, t := range values(s.Rhs) {
							add(t, p.info.TypeOf(s.Lhs[i]))
						}
					}
				case *ast.ValueSpec:
					if s.Type != nil {
						for _, t := range values(s.Values) {
							add(t, p.info.TypeOf(s.Type))
						}
					}
				case *ast.SendStmt:
					if ch, ok := p.info.TypeOf(s.Chan).Underlying().(*types.Chan); ok {
						add(p.info.TypeOf(s.Value), ch.Elem())
					}
				case *ast.ReturnStmt:
					var sig *types.Signature
					for i := len(path) - 1; i >= 0 && sig == nil; i-- {
						switch fn := path[i].(type) {
						case *ast.FuncDecl:
							sig = p.info.Defs[fn.Name].Type().(*types.Signature)
						case *ast.FuncLit:
							sig = p.info.TypeOf(fn).(*types.Signature)
						}
					}
					for i, t := range values(s.Results) {
						if i < sig.Results().Len() {
							add(t, sig.Results().At(i).Type())
						}
					}
				case *ast.CallExpr:
					fun := p.info.Types[s.Fun]
					switch {
					case fun.IsType():
						add(p.info.TypeOf(s.Args[0]), fun.Type)
					case fun.IsBuiltin():
						if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && id.Name == "append" && !s.Ellipsis.IsValid() {
							if sl, ok := p.info.TypeOf(s.Args[0]).Underlying().(*types.Slice); ok {
								for _, a := range s.Args[1:] {
									add(p.info.TypeOf(a), sl.Elem())
								}
							}
						}
					default:
						sig, ok := fun.Type.Underlying().(*types.Signature)
						if !ok {
							break
						}
						params := sig.Params()
						for i, t := range values(s.Args) {
							switch {
							case sig.Variadic() && i >= params.Len()-1 && !s.Ellipsis.IsValid():
								add(t, params.At(params.Len()-1).Type().(*types.Slice).Elem())
							case i < params.Len():
								add(t, params.At(i).Type())
							}
						}
					}
				case *ast.CompositeLit:
					switch u := p.info.TypeOf(s).Underlying().(type) {
					case *types.Struct:
						for i, el := range s.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									add(p.info.TypeOf(kv.Value), v.Type())
								}
							} else {
								add(p.info.TypeOf(el), u.Field(i).Type())
							}
						}
					case *types.Slice, *types.Array, *types.Map:
						var key, elem types.Type
						switch u := u.(type) {
						case *types.Slice:
							elem = u.Elem()
						case *types.Array:
							elem = u.Elem()
						case *types.Map:
							key, elem = u.Key(), u.Elem()
						}
						for _, el := range s.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								add(p.info.TypeOf(kv.Key), key)
								el = kv.Value
							}
							add(p.info.TypeOf(el), elem)
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// interfaces maps a method name to the interfaces that can call it: those
// of the standard library the tree imports, and those of the tree whose
// method of that name some non-test code calls.
func (x *index) interfaces(usedAnywhere map[types.Object]bool) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	addIface := func(it *types.Interface, std bool) {
		if seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if std || usedAnywhere[m] {
				out[m.Name()] = append(out[m.Name()], it)
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	addIface(errType.Underlying().(*types.Interface), true)
	// errors.Is and errors.As call Unwrap through an interface literal,
	// which export data does not list.
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete(), true)
	std := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		for _, imp := range tp.Imports() {
			if x.pkgs[imp.Path()] != nil || std[imp] {
				continue
			}
			std[imp] = true
			walk(imp)
		}
	}
	for _, p := range x.packages() {
		walk(p.types)
		// The tree's interfaces, named or literal, through their methods.
		for _, obj := range p.info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						addIface(it, false)
					}
				}
			}
		}
	}
	for tp := range std {
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if it, ok := n.Underlying().(*types.Interface); ok {
						addIface(it, true)
					}
				}
			}
		}
	}
	return out
}

// allowEntry is one line of testdata/allowlist.txt: an exported identifier
// or a struct field only tests name, kept because it is a test oracle or a
// test seam.
type allowEntry struct {
	name string
	line int
}

// readAllowlist returns the allowlist's exported identifiers and, after
// its "[fields]" line, its struct fields.
func readAllowlist(x *index) (exports, fields []allowEntry, err error) {
	text, err := x.readFile("internal/treecheck/testdata/allowlist.txt")
	if err != nil {
		return nil, nil, err
	}
	out := &exports
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "[fields]" {
			out = &fields
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		kind, why, _ := strings.Cut(strings.TrimSpace(reason), ":")
		if (kind != "oracle" && kind != "seam") || strings.TrimSpace(why) == "" {
			return nil, nil, fmt.Errorf("allowlist.txt:%d: want %q, got %q", n, "<name> oracle|seam: <reason>", line)
		}
		*out = append(*out, allowEntry{name: name, line: n})
	}
	return exports, fields, sc.Err()
}

// TestNoUnusedExports fails on every exported identifier under internal/
// that no non-test code in the tree (bench/ included) names, unless the
// allowlist keeps it as a test oracle or seam, and on every allowlist
// entry that no longer names such an identifier.
func TestNoUnusedExports(t *testing.T) {
	x := load(t)
	allow, _, err := readAllowlist(x)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, a := range allow {
		allowed[a.name] = true
	}
	all := x.exports()
	byName := map[string]*export{}
	for _, e := range all {
		byName[e.name] = e
		if e.used || allowed[e.name] {
			continue
		}
		t.Errorf("%s: %s is named by no non-test code: delete it, or list it in testdata/allowlist.txt if it is a test oracle or seam",
			x.fset.Position(e.obj.Pos()), e.name)
	}
	for _, a := range allow {
		switch e := byName[a.name]; {
		case e == nil:
			t.Errorf("allowlist.txt:%d: %s is not an exported identifier under internal/", a.line, a.name)
		case e.used:
			t.Errorf("allowlist.txt:%d: %s is named by non-test code; take it off the list", a.line, a.name)
		}
	}
	t.Logf("%d exported identifiers under internal/, %d on the allowlist", len(all), len(allow))
}
