// Command deadcheck lists the functions, methods and package-level
// constants, variables and types that no non-test code in the repository
// uses, so that code deleted as unused stays deleted.
//
// Usage:
//
//	go run ./cmd/deadcheck [dir]
//
// It type-checks the non-test files of every module under dir (default
// "."), so uses from any package of any module count, and prints one line
// per unused declaration. It exits 1 when it prints any, or when an
// allowlist entry matches none. These count as used: every declaration of
// the package at the root of dir's module (the public facade), main and
// init, blank (_) names, methods that make their type satisfy an
// interface declared in a scanned package or in a package one of them
// imports, and the names in allow.go. A use from inside the declaration
// itself (a function's body, a constant's or variable's initializer, a
// type's definition) does not count.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	hits, err := scan(root, allow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	unused, lines := 0, 0
	for _, h := range hits {
		fmt.Println(h)
		if !h.stale {
			unused, lines = unused+1, lines+h.lines
		}
	}
	if len(hits) > 0 {
		fmt.Fprintf(os.Stderr, "deadcheck: %d unused (%d lines with doc comments), %d stale allowlist entries\n",
			unused, lines, len(hits)-unused)
		os.Exit(1)
	}
}

// A hit is one unused declaration, or one allowlist entry that matched
// none.
type hit struct {
	pos   string // file:line relative to the scanned root
	name  string // import path, then Name or Type.Method
	lines int    // declaration lines including its doc comment
	stale bool
}

func (h hit) String() string {
	if h.stale {
		return "allowlist entry " + h.name + " matches no unused declaration"
	}
	return fmt.Sprintf("%s: %s is unused (%d lines)", h.pos, h.name, h.lines)
}

// decl is one package-level declaration in a scanned package: a function
// or method, or one constant, variable or type spec. Uses inside node
// do not count; doc starts its line count.
type decl struct {
	node ast.Node
	doc  *ast.CommentGroup
	pkg  string
}

// loader type-checks module packages from source on first import and
// hands every other path to the standard library's source importer.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	files map[string][]*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	src, ok := l.dirs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(src, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(src, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.infos[path], l.files[path] = p, info, files
	return p, nil
}

// scan type-checks every package under root and returns the unused
// functions in file order, then the allowlist entries that matched none.
func scan(root string, allow map[string]string) ([]hit, error) {
	// Packages with cgo files would otherwise need the cgo tool; the
	// pure-Go build of each declares the same API.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
		files: map[string][]*ast.File{},
	}
	facade, err := findPackages(root, l.dirs)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)

	decls := map[types.Object]*decl{}
	var order []types.Object
	add := func(path string, id *ast.Ident, node ast.Node, doc *ast.CommentGroup) {
		if id.Name == "_" {
			return
		}
		obj := l.infos[path].Defs[id]
		decls[obj] = &decl{node: node, doc: doc, pkg: path}
		order = append(order, obj)
	}
	for _, path := range paths {
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(path, d.Name, d, d.Doc)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var ids []*ast.Ident
						var doc *ast.CommentGroup
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							ids, doc = []*ast.Ident{spec.Name}, spec.Doc
						case *ast.ValueSpec:
							ids, doc = spec.Names, spec.Doc
						}
						// An ungrouped spec's doc comment sits on its
						// declaration.
						if !d.Lparen.IsValid() {
							doc = d.Doc
						}
						for _, id := range ids {
							add(path, id, spec, doc)
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, path := range paths {
		for id, obj := range l.infos[path].Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d := decls[obj]; d != nil && id.Pos() >= d.node.Pos() && id.Pos() < d.node.End() {
				continue // a use inside the object's own declaration
			}
			used[obj] = true
		}
	}
	markInterfaceMethods(l, paths, used)

	var hits []hit
	matched := map[string]bool{}
	for _, obj := range order {
		d := decls[obj]
		name := d.pkg + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				name = d.pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
			} else if fn.Name() == "init" || (fn.Name() == "main" && fn.Pkg().Name() == "main") {
				continue
			}
		}
		if d.pkg == facade || used[obj] {
			continue
		}
		if key := allowKey(allow, name); key != "" {
			matched[key] = true
			continue
		}
		start := d.node.Pos()
		if d.doc != nil {
			start = d.doc.Pos()
		}
		p := fset.Position(d.node.Pos())
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		hits = append(hits, hit{
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line),
			name:  name,
			lines: fset.Position(d.node.End()).Line - fset.Position(start).Line + 1,
		})
	}
	var stale []string
	for key := range allow {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		hits = append(hits, hit{name: key, stale: true})
	}
	return hits, nil
}

// allowKey returns the allowlist entry that covers name: the name itself,
// or its type for a method.
func allowKey(allow map[string]string, name string) string {
	if _, ok := allow[name]; ok {
		return name
	}
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		if _, ok := allow[name[:i]]; ok {
			return name[:i]
		}
	}
	return ""
}

// markInterfaceMethods marks as used every method, declared or promoted,
// through which a named type of a scanned package satisfies an interface
// that a scanned package declares or uses, or that a package one of them
// imports declares.
func markInterfaceMethods(l *loader, paths []string, used map[types.Object]bool) {
	ifaces := map[*types.Interface]bool{}
	addScope := func(s *types.Scope) {
		for _, n := range s.Names() {
			if tn, ok := s.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces[it] = true
				}
			}
		}
	}
	addScope(types.Universe)
	var named []types.Type
	for _, path := range paths {
		p := l.pkgs[path]
		addScope(p.Scope())
		for _, imp := range p.Imports() {
			addScope(imp.Scope())
		}
		for _, tv := range l.infos[path].Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() {
				if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
					named = append(named, tn.Type(), types.NewPointer(tn.Type()))
				}
			}
		}
	}
	for it := range ifaces {
		if it.NumMethods() == 0 || !it.IsMethodSet() {
			continue
		}
		for _, t := range named {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}
}

// findPackages records the import path and directory of every package
// under root, in every module found there, and returns the import path of
// the module at root, whose package is the public facade.
func findPackages(root string, dirs map[string]string) (string, error) {
	rootMod := ""
	mods := map[string]string{} // module directory -> module path
	err := filepath.WalkDir(root, func(file string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if file != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			mod, err := modulePath(filepath.Join(file, "go.mod"))
			if err != nil {
				return err
			}
			if mod != "" {
				mods[file] = mod
				if file == root {
					rootMod = mod
				}
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(file)
		for m := dir; ; m = filepath.Dir(m) {
			if mod, ok := mods[m]; ok {
				rel, err := filepath.Rel(m, dir)
				if err != nil {
					return err
				}
				dirs[strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/.")] = dir
				return nil
			}
			if m == root || m == filepath.Dir(m) {
				return fmt.Errorf("%s: no go.mod at or above its directory within %s", file, root)
			}
		}
	})
	if err == nil && rootMod == "" {
		err = fmt.Errorf("%s: no go.mod", root)
	}
	return rootMod, err
}

// modulePath reads the module line of a go.mod file, or returns "" when
// the file does not exist.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if os.IsNotExist(err) {
		return "", nil
	} else if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
