// Command unref lints the module's exported API: every exported top-level
// name declared in a non-test file under internal/ — function, type,
// variable, constant or method — must be referenced from a non-test file:
// production code in any package (its own included), a command, an example,
// or the bench/ module's non-test code, which reaches this one through a
// replace. A reference from a _test.go file counts for nothing, whichever
// package it sits in. CI runs it via scripts/ci.sh and fails the build on
// offenders, so code kept alive only by tests cannot accumulate.
//
// References are resolved, not matched by name: go list names every package
// of both modules, go/types checks their non-test files (and the standard
// library, from source), and a reference counts for the object it denotes,
// so a call to one type's Render keeps no other type's Render alive. A
// method also counts as referenced when its type satisfies an interface with
// that method which the program mentions (a variable, a parameter, a
// conversion, a constraint) or which fmt, errors and encoding/json look for
// on the values they are handed (String, Error, MarshalJSON and kin): such a
// method is called dynamically.
//
// Struct fields are not linted. Map keys, %+v and encoding/json read fields
// reflectively, so a rule demanding a field read would flag fields whose
// only reader is a printout or a wire format; write-only fields are swept by
// hand.
//
// Two gaps, neither hit by today's tree: only the files go list selects for
// the host platform and default tags are read, so names in other builds'
// files (kernel_generic.go under purego) go unlinted, and a name whose only
// production reader sits in such a file is reported; and a generic type's
// method reached only through an interface is reported, since satisfy skips
// uninstantiated types.
//
// A declaration whose doc comment carries the line
//
//	//vista:keep <reason>
//
// is exempt. The marker has two uses: reference implementations that tests
// compare the production path against, and test harnesses that other
// packages' tests drive but production code leaves idle (fault arming, a
// fake clock). Usage, from the repository root:
//
//	go run ./scripts/unref
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	unref, total, err := check(".", "bench")
	if err != nil {
		fmt.Fprintln(os.Stderr, "unref:", err)
		os.Exit(1)
	}
	if len(unref) > 0 {
		fmt.Fprintln(os.Stderr, "unref: exported names no non-test file references:")
		for _, u := range unref {
			fmt.Fprintln(os.Stderr, "  "+u)
		}
		os.Exit(1)
	}
	fmt.Printf("unref: %d exported names, all referenced\n", total)
}

// pkg is one listed package: go list's fields, then its checked form.
type pkg struct {
	Dir, ImportPath string
	GoFiles         []string
	Module          struct{ Path string }
	types           *types.Package
}

type checker struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.Importer
	info types.Info
	kept map[token.Position]bool // the line under each keep marker
	// used holds every referenced object, and ifaces every mentioned
	// interface. Only non-test files are checked, so every site counts.
	used   map[types.Object]bool
	ifaces map[*types.Interface]bool
}

// implicit names the interfaces the standard library calls implicitly.
const implicit = `package implicit
import ("encoding"; "encoding/json"; "fmt")
var _ = []any{fmt.Stringer(nil), fmt.GoStringer(nil), fmt.Formatter(nil), error(nil),
	json.Marshaler(nil), json.Unmarshaler(nil), encoding.TextMarshaler(nil), encoding.TextUnmarshaler(nil),
	interface{ Unwrap() error }(nil), interface{ Unwrap() []error }(nil),
	interface{ Is(error) bool }(nil), interface{ As(any) bool }(nil)}`

// check type-checks the modules in dirs and returns the names under the first
// one's internal/ that no non-test file references, as "file:line:col:
// pkg.Name", and the number of names it linted.
func check(dirs ...string) ([]string, int, error) {
	c := &checker{fset: token.NewFileSet(), pkgs: map[string]*pkg{}, kept: map[token.Position]bool{},
		used: map[types.Object]bool{}, ifaces: map[*types.Interface]bool{},
		info: types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}}
	var order, lint []*pkg
	wd, _ := os.Getwd()
	for i, dir := range dirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, 0, fmt.Errorf("go list in %s: %w", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(pkg)
			if err := dec.Decode(p); err != nil {
				return nil, 0, err
			}
			if rel, err := filepath.Rel(wd, p.Dir); err == nil {
				p.Dir = rel // positions print relative to the working directory
			}
			c.pkgs[p.ImportPath] = p
			order = append(order, p)
			if i == 0 && strings.HasPrefix(p.ImportPath, p.Module.Path+"/internal/") {
				lint = append(lint, p)
			}
		}
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	for _, p := range order {
		if _, err := c.Import(p.ImportPath); err != nil {
			return nil, 0, err
		}
	}
	f, err := parser.ParseFile(c.fset, "implicit.go", implicit, 0)
	if err != nil {
		return nil, 0, err
	}
	if _, err := (&types.Config{Importer: c}).Check("implicit", c.fset, []*ast.File{f}, &c.info); err != nil {
		return nil, 0, err
	}

	for _, obj := range c.info.Uses {
		c.used[origin(obj)] = true
		c.mention(obj.Type())
	}
	for _, tv := range c.info.Types {
		c.mention(tv.Type)
	}
	c.satisfy()

	var unref []string
	total := 0
	for _, p := range lint {
		for _, obj := range c.declared(p) {
			total++
			if !c.used[obj] {
				unref = append(unref, fmt.Sprintf("%s: %s", c.fset.Position(obj.Pos()), qualified(obj)))
			}
		}
	}
	sort.Strings(unref)
	return unref, total, nil
}

// Import returns a module package's checked non-test files, checking them
// (and so their imports) on first use.
func (c *checker) Import(path string) (*types.Package, error) {
	p := c.pkgs[path]
	if p == nil {
		return c.std.Import(path)
	}
	if p.types == nil {
		var err error
		if p.types, err = c.checkFiles(p); err != nil {
			return nil, err
		}
	}
	return p.types, nil
}

// checkFiles parses and type-checks p's non-test files.
func (c *checker) checkFiles(p *pkg) (*types.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, doc := range f.Comments {
			for _, line := range doc.List {
				if reason, ok := strings.CutPrefix(line.Text, "//vista:keep"); ok && strings.TrimSpace(reason) != "" {
					pos := c.fset.Position(doc.End())
					c.kept[token.Position{Filename: pos.Filename, Line: pos.Line + 1}] = true
				}
			}
		}
		files = append(files, f)
	}
	return (&types.Config{Importer: c}).Check(p.ImportPath, c.fset, files, &c.info)
}

// declared lists p's exported top-level names and methods declared below no
// keep marker.
func (c *checker) declared(p *pkg) (out []types.Object) {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		objs := []types.Object{scope.Lookup(name)}
		if n, ok := objs[0].Type().(*types.Named); ok && n.Obj() == objs[0] {
			for i := 0; i < n.NumMethods(); i++ {
				objs = append(objs, n.Method(i))
			}
		}
		for _, obj := range objs {
			pos := c.fset.Position(obj.Pos())
			if obj.Exported() && !c.kept[token.Position{Filename: pos.Filename, Line: pos.Line}] {
				out = append(out, obj)
			}
		}
	}
	return out
}

// mention records t, a value's type, when it is an interface with methods,
// and the interfaces among t's parameters and results when it is a function.
// Every interface the source names is some expression's type; walking
// signatures adds those that standard library functions take.
func (c *checker) mention(t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				c.mention(tup.At(i).Type())
			}
		}
	} else if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
		c.ifaces[i] = true
	}
}

// satisfy marks the methods by which each module type satisfies a mentioned
// interface as referenced.
func (c *checker) satisfy() {
	for _, p := range c.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			n, ok := scope.Lookup(name).Type().(*types.Named)
			if !ok || n.Obj() != scope.Lookup(name) || n.TypeParams() != nil || types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n) // its method set holds the value methods too
			for i := range c.ifaces {
				if !types.Implements(ptr, i) {
					continue
				}
				for m := 0; m < i.NumMethods(); m++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, p.types, i.Method(m).Name())
					c.used[origin(obj)] = true
				}
			}
		}
	}
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// qualified names obj as pkg.Name, or pkg.Recv.Name for a method.
func qualified(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		name += strings.TrimPrefix(recv, "*") + "."
	}
	return name + obj.Name()
}
