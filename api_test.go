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
// line prefixed with the import path.
func surface(t *testing.T, path, dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for name, f := range p.Files {
			if filepath.Dir(name) == filepath.Clean(dir) {
				files = append(files, f)
			}
		}
	}
	p, err := doc.NewFromFiles(fset, files, path)
	if err != nil {
		t.Fatal(err)
	}
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
			recv := ""
			if f.Decl.Recv != nil {
				recv = "(" + src(f.Decl.Recv.List[0].Type) + ") "
			}
			f.Decl.Body, f.Decl.Doc, f.Decl.Recv = nil, nil, nil
			add(kind, recv+strings.TrimPrefix(src(f.Decl), "func "))
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	funcs("func", p.Funcs)
	for _, typ := range p.Types {
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs("func", typ.Funcs)
		funcs("method", typ.Methods)
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		switch st := spec.Type.(type) {
		case *ast.StructType:
			add("type", typ.Name+" struct")
			for _, f := range st.Fields.List {
				names := f.Names
				if names == nil { // embedded: named by its type
					name := strings.TrimPrefix(src(f.Type), "*")
					names = []*ast.Ident{ast.NewIdent(name[strings.LastIndex(name, ".")+1:])}
				}
				for _, n := range names {
					if n.IsExported() {
						add("field", typ.Name+"."+n.Name+" "+src(f.Type))
					}
				}
			}
		case *ast.InterfaceType:
			add("type", typ.Name+" interface")
			for _, m := range st.Methods.List {
				for _, n := range m.Names {
					if n.IsExported() {
						add("method", "("+typ.Name+") "+n.Name+strings.TrimPrefix(src(m.Type), "func"))
					}
				}
			}
		default:
			sep := " "
			if spec.Assign.IsValid() {
				sep = " = "
			}
			add("type", typ.Name+sep+src(spec.Type))
		}
	}
	return out
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
