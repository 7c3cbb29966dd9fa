// Command unref lints the module's exported API: every exported top-level
// name declared in a non-test file under internal/ — function, type,
// variable, constant or method — must be referenced from somewhere other than
// its own package's tests: production code in any package, another package's
// tests, a command, an example, or the bench/ module. CI runs it via
// scripts/ci.sh and fails the build on offenders, so code kept alive only by
// its own tests cannot accumulate.
//
// The check is syntactic. A package-level name is referenced by a qualified
// identifier (pkg.Name) or, inside its own package, by a bare identifier; a
// method is referenced by a selector with its name on any receiver, so a
// method sharing its name with another type's or an interface's counts as
// referenced — the check errs towards silence.
//
// A declaration whose doc comment carries the line
//
//	//vista:keep <reason>
//
// is exempt: the marker is for reference implementations that tests compare
// the production path against. Usage, from the repository root:
//
//	go run ./scripts/unref
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const module = "repro"

// decl is one exported top-level name; key is what references to it are
// recorded under: "dir.Name" for a package-level name, ".Name" for a method.
type decl struct {
	key, dir, name string
	pos            token.Position
}

func main() {
	fset := token.NewFileSet()
	var decls []decl
	// sites[key] holds every place key is referenced from: a package dir,
	// suffixed " test" for its test files.
	sites := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, site := filepath.Dir(path), filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") {
			site += " test"
		} else if strings.HasPrefix(dir, "internal"+string(filepath.Separator)) {
			decls = append(decls, exported(fset, dir, f)...)
		}
		refs(dir, f, func(key string) {
			if sites[key] == nil {
				sites[key] = map[string]bool{}
			}
			sites[key][site] = true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unref:", err)
		os.Exit(1)
	}

	var unref []string
	for _, d := range decls {
		used := false
		for site := range sites[d.key] {
			used = used || site != d.dir+" test"
		}
		if !used {
			unref = append(unref, fmt.Sprintf("%s: %s", d.pos, d.name))
		}
	}
	sort.Strings(unref)
	if len(unref) > 0 {
		fmt.Fprintln(os.Stderr, "unref: exported names referenced only by their own package's tests:")
		for _, u := range unref {
			fmt.Fprintln(os.Stderr, "  "+u)
		}
		os.Exit(1)
	}
	fmt.Printf("unref: %d exported names, all referenced\n", len(decls))
}

// exported lists f's exported top-level declarations that carry no keep
// marker.
func exported(fset *token.FileSet, dir string, f *ast.File) []decl {
	var out []decl
	add := func(doc *ast.CommentGroup, recv string, id *ast.Ident) {
		if !id.IsExported() || kept(doc) {
			return
		}
		d := decl{key: dir + "." + id.Name, dir: dir, name: f.Name.Name + "." + id.Name, pos: fset.Position(id.Pos())}
		if recv != "" {
			d.key, d.name = "."+id.Name, f.Name.Name+"."+recv+"."+id.Name
		}
		out = append(out, d)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = "?"
				ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && recv == "?" {
						recv = id.Name // the receiver's type name, before any type parameters
					}
					return true
				})
			}
			add(d.Doc, recv, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(docOr(s.Doc, d.Doc), "", s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(docOr(s.Doc, d.Doc), "", id)
					}
				}
			}
		}
	}
	return out
}

func docOr(spec, decl *ast.CommentGroup) *ast.CommentGroup {
	if spec != nil {
		return spec
	}
	return decl
}

// kept reports whether doc carries a //vista:keep line with a reason.
func kept(doc *ast.CommentGroup) bool {
	for _, c := range docOr(doc, &ast.CommentGroup{}).List {
		if reason, ok := strings.CutPrefix(c.Text, "//vista:keep"); ok && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}

// refs calls ref with the key of every name f, a file in dir, references: a
// module package's name qualified through an import, a bare exported
// identifier of f's own package, or (as ".Name") any other selector.
func refs(dir string, f *ast.File, ref func(key string)) {
	imports := map[string]string{} // local name -> package dir
	for _, im := range f.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		if rel, ok := strings.CutPrefix(path, module+"/"); ok {
			name := filepath.Base(rel)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = filepath.FromSlash(rel)
		}
	}
	// Declaring identifiers, a method's receiver, and the name half of a
	// selector are not bare references.
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv != nil {
				ast.Inspect(n.Recv, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		}
		return true
	})
	// An external test package (pkg_test) sees its package only through an
	// import.
	bare := !strings.HasSuffix(f.Name.Name, "_test")
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				skip[x] = true
				ref(imports[x.Name] + "." + n.Sel.Name)
			} else {
				ref("." + n.Sel.Name)
			}
		case *ast.Ident:
			if bare && !skip[n] && n.IsExported() {
				ref(dir + "." + n.Name)
			}
		}
		return true
	})
}
