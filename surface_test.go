package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedNamesHaveCallers holds the measuring surface to what some
// program reads: every exported function, method and package-level var or
// const under internal/ must be used by a file that is not a _test.go file,
// in this module or in the nested benchmarks/ module. Both modules are
// type-checked with go/types over the files `go list` selects, once for the
// default build and once with -tags racecheck; a use in either counts.
// Methods named by an interface declared in either module are exempt, since
// a call through the interface does not name the concrete method, and so
// are String, Error and ServeHTTP, which the standard library calls. A name
// only a test needs belongs in that package's _test.go files.
func TestExportedNamesHaveCallers(t *testing.T) {
	declared := map[string]declaration{}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{"String": true, "Error": true, "ServeHTTP": true}
	for _, tags := range []string{"", "racecheck"} {
		surveyBuild(t, tags, declared, used, ifaceMethods)
	}
	wd, _ := os.Getwd()
	var unused []string
	for k, d := range declared {
		if used[k] || d.method && ifaceMethods[d.name] {
			continue
		}
		file, _ := filepath.Rel(wd, d.pos.Filename)
		unused = append(unused, fmt.Sprintf("%s (%s:%d)", k, file, d.pos.Line))
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside _test.go files; "+
			"delete them, or move the ones a test needs into that package's _test.go files:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// declaration is where an exported name is declared, the bare name, and
// whether it is a method.
type declaration struct {
	pos    token.Position
	name   string
	method bool
}

// listedPackage is the part of `go list -json` the survey reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// surveyBuild type-checks every non-standard package both modules depend on
// under one tag set. It records in declared each exported top-level
// function, method, var and const under internal/ (keyed "pkg.Name" or
// "pkg.Type.Method"), in used every such name referenced from a non-test
// file, and in ifaceMethods the method names of every interface type the
// modules declare.
func surveyBuild(t *testing.T, tags string, declared map[string]declaration, used, ifaceMethods map[string]bool) {
	t.Helper()
	pkgs := map[string]*listedPackage{}
	for _, dir := range []string{".", "benchmarks"} {
		for _, p := range goList(t, dir, tags) {
			pkgs[p.ImportPath] = p
		}
	}
	var std []string
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		for _, imp := range p.Imports {
			if q := pkgs[imp]; q != nil && q.Standard {
				std = append(std, imp)
			}
		}
	}
	exports := stdExports(t, std)
	fset := token.NewFileSet()
	stdImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil && !p.Standard {
			return check(path)
		}
		return stdImp.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if tp := checked[path]; tp != nil {
			return tp, nil
		}
		p := pkgs[path]
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = tp
		for _, obj := range info.Uses {
			if k := surfaceKey(obj); k != "" {
				used[k] = true
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				var names []*ast.Ident
				method := false
				switch d := d.(type) {
				case *ast.FuncDecl:
					names, method = []*ast.Ident{d.Name}, d.Recv != nil
				case *ast.GenDecl:
					if d.Tok != token.VAR && d.Tok != token.CONST {
						continue
					}
					for _, s := range d.Specs {
						names = append(names, s.(*ast.ValueSpec).Names...)
					}
				}
				for _, name := range names {
					if !name.IsExported() {
						continue
					}
					if k := surfaceKey(info.Defs[name]); k != "" {
						declared[k] = declaration{fset.Position(name.Pos()), name.Name, method}
					}
				}
			}
		}
		return tp, nil
	}
	for path, p := range pkgs {
		if !p.Standard {
			if _, err := check(path); err != nil {
				t.Fatalf("type-check %s (tags %q): %v", path, tags, err)
			}
		}
	}
}

// surfaceKey names obj as "pkg.Name", or "pkg.Type.Method" for a method of
// a named type, when obj is a function, method, var or const declared under
// internal/; otherwise it returns "". Struct fields and methods declared by
// interfaces have no key.
func surfaceKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") {
		return ""
	}
	prefix := obj.Pkg().Path() + "."
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Origin().Type().(*types.Signature).Recv()
		if recv == nil {
			return prefix + o.Name()
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if n, ok := rt.(*types.Named); ok && !types.IsInterface(n) {
			return prefix + n.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if !o.IsField() && o.Parent() == o.Pkg().Scope() {
			return prefix + o.Name()
		}
	case *types.Const:
		if o.Parent() == o.Pkg().Scope() {
			return prefix + o.Name()
		}
	}
	return ""
}

// goList returns the packages matched by ./... in the module at dir, with
// their dependencies, as `go list` selects their files under tags.
func goList(t *testing.T, dir, tags string) []*listedPackage {
	t.Helper()
	out := goCmd(t, "-C", dir, "list", "-tags", tags, "-deps",
		"-json=ImportPath,Dir,GoFiles,Imports,Standard", "./...")
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

// stdExports maps each of the named standard packages to its export data
// file, built (or found in the build cache) by one `go list -export`.
func stdExports(t *testing.T, paths []string) map[string]string {
	t.Helper()
	out := goCmd(t, append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)...)
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exports[path] = file
		}
	}
	return exports
}

func goCmd(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
