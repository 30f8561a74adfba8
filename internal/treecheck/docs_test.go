package treecheck

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// The documents whose backticked names must exist.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// The commands whose flags the documents may name, each the main package
// of cmd/<name>.
var commands = []string{"predserverd", "ronsim", "repro", "predload", "predctl", "pathprobe"}

// docSpan is one piece of code in a document: an inline `code span`, or one
// line of a fenced block.
type docSpan struct {
	text   string
	line   int
	fenced bool
}

var (
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
	dottedRE   = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)
)

// fileSuffixes end a dotted span that names a file, not a Go identifier.
var fileSuffixes = map[string]bool{
	"go": true, "md": true, "json": true, "gz": true, "txt": true, "sh": true,
	"golden": true, "prom": true, "mod": true, "yml": true, "yaml": true,
	"csv": true, "jsonl": true, "out": true, "log": true,
}

// docSpans returns a document's code spans. Inline spans may wrap lines.
func docSpans(text string) []docSpan {
	var out []docSpan
	lines := strings.Split(text, "\n")
	prose := make([]string, len(lines))
	fenced := false
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose[i] = l
			continue
		}
		// A fenced line, joined with its backslash continuations; a
		// trailing "# ..." is a shell comment.
		start := i
		for strings.HasSuffix(l, "\\") && i+1 < len(lines) {
			i++
			l = strings.TrimSuffix(l, "\\") + " " + lines[i]
		}
		if j := strings.Index(l, " #"); j >= 0 {
			l = l[:j]
		}
		out = append(out, docSpan{text: l, line: start + 1, fenced: true})
	}
	joined := strings.Join(prose, "\n")
	for _, m := range codeSpanRE.FindAllStringSubmatchIndex(joined, -1) {
		out = append(out, docSpan{
			text: strings.Join(strings.Fields(joined[m[2]:m[3]]), " "),
			line: strings.Count(joined[:m[0]], "\n") + 1,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

// resolver answers whether a name a document writes exists in the tree,
// its tests, or the standard library the tree imports.
type resolver struct {
	x      *index
	byName map[string][]*types.Package // package name → packages
	tests  map[string]bool             // names declared in _test.go files
	// members holds every method and field name of the tree's types.
	members map[string]bool
}

func newResolver(x *index) (*resolver, error) {
	r := &resolver{x: x, byName: map[string][]*types.Package{}, tests: map[string]bool{}, members: map[string]bool{}}
	seen := map[*types.Package]bool{}
	var add func(*types.Package)
	add = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if tp.Name() != "main" {
			r.byName[tp.Name()] = append(r.byName[tp.Name()], tp)
		}
		for _, imp := range tp.Imports() {
			add(imp)
		}
	}
	for _, p := range x.packages() {
		add(p.types)
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				r.members[ms.At(i).Obj().Name()] = true
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					r.members[st.Field(i).Name()] = true
				}
			}
		}
	}
	for _, p := range x.pkgs {
		// The standard library the tests import: docs name testing's API.
		for _, path := range p.testImports {
			if x.pkgs[path] == nil {
				tp, err := x.Import(path)
				if err != nil {
					return nil, err
				}
				add(tp)
			}
		}
		for name := range p.testNames {
			r.tests[name] = true
			if _, m, ok := strings.Cut(name, "."); ok {
				r.members[m] = true
			}
		}
	}
	return r, nil
}

// member resolves a chain of field and method names from obj.
func member(obj types.Object, names []string) bool {
	for _, name := range names {
		if _, ok := obj.(*types.PkgName); ok {
			return false
		}
		sel, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		if sel == nil {
			return false
		}
		obj = sel
	}
	return true
}

// identifier reports whether a dotted span names something that exists,
// and whether the span is a Go identifier at all: a lowercase head that
// names no package is a local variable, a bare all-lowercase or all-caps
// word is prose, a JSON key or an acronym, and a snake_case name is a
// metric.
func (r *resolver) identifier(s string) (checked, ok bool) {
	if i := strings.IndexByte(s, '('); i > 0 && strings.HasSuffix(s, ")") {
		s = s[:i]
	}
	if !dottedRE.MatchString(s) || strings.Contains(s, "_") {
		return false, false
	}
	parts := strings.Split(s, ".")
	if len(parts) > 1 && fileSuffixes[parts[len(parts)-1]] {
		return false, false
	}
	head := parts[0]
	if len(parts) == 1 {
		upper := strings.IndexFunc(head, unicode.IsUpper) >= 0
		lower := strings.IndexFunc(head, unicode.IsLower) >= 0
		if !upper || !lower {
			return false, false
		}
		if r.tests[head] || r.members[head] {
			return true, true
		}
		for _, p := range r.x.packages() {
			if p.types.Scope().Lookup(head) != nil {
				return true, true
			}
		}
		for _, pkgs := range r.byName {
			for _, tp := range pkgs {
				if tp.Scope().Lookup(head) != nil {
					return true, true
				}
			}
		}
		return true, false
	}
	if pkgs := r.byName[head]; len(pkgs) > 0 {
		for _, tp := range pkgs {
			if obj := tp.Scope().Lookup(parts[1]); obj != nil && member(obj, parts[2:]) {
				return true, true
			}
			if p := r.x.pkgs[tp.Path()]; p != nil && len(parts) <= 3 && p.testNames[strings.Join(parts[1:], ".")] {
				return true, true
			}
		}
		return true, false
	}
	if !unicode.IsUpper(rune(head[0])) {
		return false, false
	}
	if len(parts) == 2 && r.tests[s] {
		return true, true
	}
	for _, p := range r.x.packages() {
		if obj := p.types.Scope().Lookup(head); obj != nil && member(obj, parts[1:]) {
			return true, true
		}
	}
	return true, false
}

// goFlags are the go command's own flags that the documents name in a
// span of their own, outside a command line.
var goFlags = []string{"race", "benchtime"}

// commandFlags returns the flags each command defines through the flag
// package, by name. The entry for "" holds every command's flags and
// goFlags: the flags a span that names no command may open with.
func commandFlags(t *testing.T, x *index) map[string]map[string]bool {
	// flag-package function → index of its flag-name argument
	defining := map[string]int{"Func": 0, "BoolFunc": 0, "Var": 1, "TextVar": 1}
	for _, k := range []string{"Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration"} {
		defining[k] = 0
		defining[k+"Var"] = 1
	}
	anyCmd := map[string]bool{}
	for _, f := range goFlags {
		anyCmd[f] = true
	}
	out := map[string]map[string]bool{"": anyCmd}
	for _, cmd := range commands {
		p := x.pkgs[modulePath+"/cmd/"+cmd]
		if p == nil || p.types == nil {
			t.Fatalf("no package cmd/%s", cmd)
		}
		flags := map[string]bool{"h": true, "help": true}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				arg, ok := defining[fn.Name()]
				if !ok || arg >= len(call.Args) {
					return true
				}
				lit, ok := call.Args[arg].(*ast.BasicLit)
				if !ok {
					t.Errorf("%s: a flag name that is not a literal", x.fset.Position(call.Pos()))
					return true
				}
				name, _ := strconv.Unquote(lit.Value)
				flags[name] = true
				anyCmd[name] = true
				return true
			})
		}
		out[cmd] = flags
	}
	return out
}

// commandOf names the command a token invokes, if any: "ronsim",
// "./cmd/ronsim" and "bin/ronsim" all do.
func commandOf(tok string) string {
	for _, c := range commands {
		if tok == c || strings.HasSuffix(tok, "/"+c) {
			return c
		}
	}
	return ""
}

// undefinedFlags returns the -flags in a span that follow a command name
// and that command does not define, and those a span opens with that no
// command defines (`-max-inflight` on its own). `go run ./cmd/X` invokes
// X; the other go subcommands take their own flags, as do the other
// programs a span may pipe to.
func undefinedFlags(span string, defined map[string]map[string]bool) []string {
	var bad []string
	cur, skip := "", false
	lead := true // no token but flags yet
	toks := strings.Fields(span)
	for i := 0; i < len(toks); i++ {
		tok := toks[i]
		isFlag := strings.HasPrefix(tok, "-") && !strings.HasPrefix(tok, "--") && len(tok) > 1 && unicode.IsLetter(rune(tok[1]))
		if !isFlag {
			lead = false
		}
		switch {
		case tok == "|" || tok == "||" || tok == "&&" || tok == ";" || tok == "&":
			cur, skip = "", false
		case skip:
		case tok == "go":
			cur, skip = "", true
			if i+2 < len(toks) && toks[i+1] == "run" {
				if c := commandOf(toks[i+2]); c != "" {
					cur, skip = c, false
					i += 2
				}
			}
		case isFlag:
			name, _, _ := strings.Cut(tok[1:], "=")
			name = strings.TrimRight(name, ",.)")
			switch {
			case cur != "" && !defined[cur][name]:
				bad = append(bad, cur+" -"+name+" is not a flag of that command")
			case cur == "" && lead && !defined[""][name]:
				bad = append(bad, "-"+name+" is a flag of no command")
			}
		default:
			if c := commandOf(tok); c != "" {
				cur = c
			}
		}
	}
	return bad
}

// TestDocsNameWhatExists fails on every backticked Go identifier in the
// documents that resolves neither in the tree (its tests included) nor in
// the standard library it imports, and on every -flag written after a
// command's name that the command does not define.
func TestDocsNameWhatExists(t *testing.T) {
	x := load(t)
	r, err := newResolver(x)
	if err != nil {
		t.Fatal(err)
	}
	flags := commandFlags(t, x)
	for _, doc := range docFiles {
		text, err := x.readFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range docSpans(text) {
			if !s.fenced {
				if checked, ok := r.identifier(s.text); checked && !ok {
					t.Errorf("%s:%d: `%s` names no identifier in the tree or the standard library", doc, s.line, s.text)
				}
			}
			for _, f := range undefinedFlags(s.text, flags) {
				t.Errorf("%s:%d: `%s`: %s", doc, s.line, s.text, f)
			}
		}
	}
}
