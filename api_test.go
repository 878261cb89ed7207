package cem_test

// The public surface of the module's two importable packages, committed as
// testdata/api.txt: one line per exported const, var, func, type, method
// and struct field. A change that adds or removes API shows in the diff of
// that file. After an intended change:
//
//	go test -run TestPublicSurface -update

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const apiFile = "testdata/api.txt"

func TestPublicSurface(t *testing.T) {
	var lines []string
	for _, pkg := range []struct{ path, dir string }{{"repro", "."}, {"repro/match", "match"}} {
		lines = append(lines, surface(t, pkg.path, pkg.dir)...)
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(apiFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestPublicSurface -update)", err)
	}
	if got != string(want) {
		t.Errorf("the public surface differs from %s; review it and run go test -run TestPublicSurface -update\n%s",
			apiFile, surfaceDiff(strings.Split(string(want), "\n"), lines))
	}
}

// surface lists the exported declarations of the package in dir, each
// line prefixed with the import path. An alias into one of this module's
// internal packages also lists its target's exported methods, interface
// methods and struct fields under the alias name: they are the contract
// the alias exports.
func surface(t *testing.T, path, dir string) []string {
	fset := token.NewFileSet()
	p, imports := parseDoc(t, fset, path, dir)
	src := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var out []string
	add := func(kind, decl string) { out = append(out, path+" "+kind+" "+decl) }
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() {
						add(kind, n.Name)
					}
				}
			}
		}
	}
	funcs := func(kind string, fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Body, f.Decl.Doc = nil, nil
			add(kind, strings.TrimPrefix(src(f.Decl), "func "))
		}
	}
	// members lists typ's methods and its struct fields or interface
	// methods, each under name.
	members := func(name string, typ *doc.Type) {
		for _, f := range typ.Methods {
			recv := strings.Replace(src(f.Decl.Recv.List[0].Type), typ.Name, name, 1)
			add("method", "("+recv+") "+f.Name+strings.TrimPrefix(src(f.Decl.Type), "func"))
		}
		switch st := typ.Decl.Specs[0].(*ast.TypeSpec).Type.(type) {
		case *ast.StructType:
			for _, f := range st.Fields.List {
				names := f.Names
				if names == nil { // embedded: named by its type
					tn := strings.TrimPrefix(src(f.Type), "*")
					names = []*ast.Ident{ast.NewIdent(tn[strings.LastIndex(tn, ".")+1:])}
				}
				for _, n := range names {
					if n.IsExported() {
						add("field", name+"."+n.Name+" "+src(f.Type))
					}
				}
			}
		case *ast.InterfaceType:
			for _, m := range st.Methods.List {
				for _, n := range m.Names {
					if n.IsExported() {
						add("method", "("+name+") "+n.Name+strings.TrimPrefix(src(m.Type), "func"))
					}
				}
			}
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs("func", p.Funcs)
	for _, typ := range p.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs("func", typ.Funcs)
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		switch spec.Type.(type) {
		case *ast.StructType:
			add("type", typ.Name+" struct")
		case *ast.InterfaceType:
			add("type", typ.Name+" interface")
		default:
			sep := " "
			if spec.Assign.IsValid() {
				sep = " = "
			}
			add("type", typ.Name+sep+src(spec.Type))
		}
		members(typ.Name, typ)
		if target := aliasTarget(t, fset, spec, imports); target != nil {
			members(typ.Name, target)
		}
	}
	return out
}

// parseDoc parses the non-test files of the package in dir and returns
// its exported documentation and the import path of every package name
// its files import.
func parseDoc(t *testing.T, fset *token.FileSet, path, dir string) (*doc.Package, map[string]string) {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	imports := map[string]string{}
	for _, p := range pkgs {
		for name, f := range p.Files {
			if filepath.Dir(name) != filepath.Clean(dir) {
				continue
			}
			files = append(files, f)
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				name := ip[strings.LastIndex(ip, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = ip
			}
		}
	}
	p, err := doc.NewFromFiles(fset, files, path)
	if err != nil {
		t.Fatal(err)
	}
	return p, imports
}

// aliasTarget returns the documentation of the type spec aliases when it
// is an alias of a type in one of this module's internal packages, and nil
// otherwise.
func aliasTarget(t *testing.T, fset *token.FileSet, spec *ast.TypeSpec, imports map[string]string) *doc.Type {
	sel, ok := spec.Type.(*ast.SelectorExpr)
	if !spec.Assign.IsValid() || !ok {
		return nil
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || !strings.HasPrefix(imports[pkg.Name], "repro/internal/") {
		return nil
	}
	path := imports[pkg.Name]
	p, _ := parseDoc(t, fset, path, strings.TrimPrefix(path, "repro/"))
	for _, typ := range p.Types {
		if typ.Name == sel.Sel.Name {
			return typ
		}
	}
	t.Fatalf("%s aliases %s.%s, which %s does not declare", spec.Name.Name, pkg.Name, sel.Sel.Name, path)
	return nil
}

// surfaceDiff lists the lines only one side has.
func surfaceDiff(want, got []string) string {
	var b strings.Builder
	for _, l := range want {
		if l != "" && !slices.Contains(got, l) {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range got {
		if !slices.Contains(want, l) {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
