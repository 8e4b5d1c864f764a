package floodguard_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestStructFieldsAreSet is the field half of the live-code gate: every
// field of a named struct type in this module's non-test code must be
// set somewhere in non-test code, or be listed in cover-live.allow as
// `path/file.go Type.Field  # reason`. A field nothing sets reads its
// zero value forever, and every branch on it looks live to coverage.
//
// A field counts as set by an assignment, op=, ++ or --, by &x.F, by a
// pointer-receiver method call on the field as an addressable value
// (g.counter.Inc(), not a call through a pointer field), by slicing an
// array field, and by a keyed or positional composite literal. A write
// through a selector chain sets every field on it down to the first
// pointer: cfg.A.B.C = v sets A, B and C, and so does cfg.A.B[i] = v
// when B is an array. bench/ is its own module and is not scanned; _ pads are
// skipped.
func TestStructFieldsAreSet(t *testing.T) {
	unset, err := unsetFields(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := allowedFields("cover-live.allow")
	if err != nil {
		t.Fatal(err)
	}
	var unlisted, stale []string
	for _, f := range unset {
		if !slices.Contains(allowed, f) {
			unlisted = append(unlisted, f)
		}
	}
	for _, f := range allowed {
		if !slices.Contains(unset, f) {
			stale = append(stale, f)
		}
	}
	if len(unlisted) > 0 {
		t.Errorf("struct fields no non-test code sets, missing from cover-live.allow (delete them or list them with a reason):\n%s",
			strings.Join(unlisted, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("cover-live.allow field entries that no longer exist or are now set (remove them):\n%s",
			strings.Join(stale, "\n"))
	}
}

// allowedFields reads the `path/file.go Type.Field` entries of the
// allowlist; function entries carry no dot in their second word.
func allowedFields(name string) ([]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		if w := strings.Fields(line); len(w) >= 2 && strings.Contains(w[1], ".") {
			out = append(out, w[0]+" "+w[1])
		}
	}
	slices.Sort(out)
	return out, sc.Err()
}

// fieldPass typechecks the module's packages from source, each once,
// with the standard library from its export data, and records the
// fields each package's code sets.
type fieldPass struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	pkgs         map[string]*types.Package
	structs      []*types.TypeName // named struct types
	set          map[*types.Var]bool
}

// unsetFields lists, sorted, every field of a named struct type declared
// in the non-test files under root (bench/ excluded) that no non-test
// code sets, as `path/file.go Type.Field`.
func unsetFields(root string) ([]string, error) {
	p := &fieldPass{
		root:   root,
		module: "floodguard",
		fset:   token.NewFileSet(),
		pkgs:   make(map[string]*types.Package),
		set:    make(map[*types.Var]bool),
	}
	var dirs []string
	var stdImports []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		dirs = append(dirs, path)
		for _, imp := range bp.Imports {
			if !p.inModule(imp) {
				stdImports = append(stdImports, imp)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One go list call finds the export data of every standard package
	// the module reaches.
	slices.Sort(stdImports)
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	listed, err := exec.Command("go", append(args, slices.Compact(stdImports)...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	export := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(listed)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		export[path] = file
	}
	p.std = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	for _, dir := range dirs {
		if _, err := p.Import(p.importPath(dir)); err != nil {
			return nil, err
		}
	}

	var out []string
	for _, tn := range p.structs {
		st := tn.Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			f := st.Field(i)
			if f.Name() == "_" || p.set[f] {
				continue
			}
			rel, err := filepath.Rel(root, p.fset.Position(f.Pos()).Filename)
			if err != nil {
				return nil, err
			}
			out = append(out, filepath.ToSlash(rel)+" "+tn.Name()+"."+f.Name())
		}
	}
	slices.Sort(out)
	return out, nil
}

func (p *fieldPass) inModule(path string) bool {
	return path == p.module || strings.HasPrefix(path, p.module+"/")
}

func (p *fieldPass) importPath(dir string) string {
	if dir == p.root {
		return p.module
	}
	rel, _ := filepath.Rel(p.root, dir)
	return p.module + "/" + filepath.ToSlash(rel)
}

// Import typechecks a module package on first use, its imports first;
// anything else comes from the standard library's export data.
func (p *fieldPass) Import(path string) (*types.Package, error) {
	if !p.inModule(path) {
		return p.std.Import(path)
	}
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(p.root, strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	for _, f := range files {
		markSets(f, info, p.set)
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if _, ok := tn.Type().Underlying().(*types.Struct); ok {
				p.structs = append(p.structs, tn)
			}
		}
	}
	p.pkgs[path] = pkg
	return pkg, nil
}

// markSets records in set every struct field the code of f sets.
func markSets(f *ast.File, info *types.Info, set map[*types.Var]bool) {
	// chain marks the fields a write to e lands in: an array element
	// lives in its array.
	var chain func(e ast.Expr)
	chain = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal && markPath(s, set) {
				chain(e.X)
			}
		case *ast.IndexExpr:
			if isArray(info.TypeOf(e.X)) {
				chain(e.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				chain(lhs)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		case *ast.SliceExpr:
			// Slicing an array takes its address.
			if isArray(info.TypeOf(n.X)) {
				chain(n.X)
			}
		case *ast.SelectorExpr:
			// A pointer-receiver method called on a value takes its
			// address.
			s := info.Selections[n]
			if s == nil || s.Kind() != types.MethodVal {
				break
			}
			if !isPointer(s.Obj().Type().(*types.Signature).Recv().Type()) {
				break
			}
			if markPath(s, set) {
				chain(n.X)
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if pt, ok := t.Underlying().(*types.Pointer); ok {
				t = pt.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[v.Origin()] = true
					}
				} else {
					set[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// markPath marks the fields a write through s lands in, and reports
// whether it lands in the operand of s too. A field selection writes its
// field; a pointer-receiver method call writes the value it is called
// on, unless that value is itself a pointer. A field promoted through
// embedded fields lives in each of them up to the first pointer.
func markPath(s *types.Selection, set map[*types.Var]bool) bool {
	idx := s.Index()
	if s.Kind() == types.MethodVal {
		idx = idx[:len(idx)-1]
	}
	var path []*types.Var
	t := s.Recv()
	for _, j := range idx {
		if pt, ok := t.Underlying().(*types.Pointer); ok {
			t = pt.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(j)
		path = append(path, f)
		t = f.Type()
	}
	if s.Kind() == types.MethodVal && isPointer(t) {
		return false
	}
	for i := len(path) - 1; i >= 0; i-- {
		set[path[i].Origin()] = true
		if i > 0 && isPointer(path[i-1].Type()) {
			return false
		}
	}
	return !isPointer(s.Recv())
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isArray(t types.Type) bool {
	_, ok := t.Underlying().(*types.Array)
	return ok
}
