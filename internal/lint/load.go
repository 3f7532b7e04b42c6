package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	ImportPath string // full import path ("ges/internal/op")
	Rel        string // module-relative path ("internal/op")
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is the fully loaded module: every non-test package, parsed with
// comments and type-checked from source, against the standard library's
// export data, using only the standard library and the go command —
// geslint deliberately avoids x/tools so it builds anywhere the toolchain
// does.
type Module struct {
	Root string // absolute module root (directory holding go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

var modulePathRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// findModuleRoot walks upward from dir to the directory holding go.mod.
func findModuleRoot(dir string) (root, modpath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			m := modulePathRe.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("geslint: %s/go.mod has no module directive", dir)
			}
			return dir, string(m[1]), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("geslint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// loader resolves imports for the module: module packages are type-checked
// from source (the rules need their ASTs), recursively and memoized;
// everything else — the standard library — is read from the compiler's
// export data, which one `go list -export` call locates.
type loader struct {
	root    string
	modpath string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // import path -> parsed package
}

func (ld *loader) inModule(path string) bool {
	return path == ld.modpath || strings.HasPrefix(path, ld.modpath+"/")
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if !ld.inModule(path) {
		return ld.std.Import(path)
	}
	pkg, err := ld.check(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// parse parses the named files of one module directory.
func (ld *loader) parse(dir string, names []string) (*Package, error) {
	rel, _ := filepath.Rel(ld.root, dir)
	pkg := &Package{ImportPath: ld.modpath, Dir: dir}
	if rel != "." {
		pkg.Rel = filepath.ToSlash(rel)
		pkg.ImportPath += "/" + pkg.Rel
	}
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// check type-checks one parsed module package (memoized: a package with
// Info but no Types is in flight).
func (ld *loader) check(path string) (*Package, error) {
	pkg := ld.pkgs[path]
	switch {
	case pkg == nil:
		return nil, fmt.Errorf("geslint: %s is not a package of the module at %s", path, ld.root)
	case pkg.Types != nil:
		return pkg, nil
	case pkg.Info != nil:
		return nil, fmt.Errorf("geslint: import cycle through %s", path)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld, FakeImportC: true}
	tpkg, err := conf.Check(path, ld.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("geslint: type-check %s: %w", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// stdImporter returns an importer reading the standard library from the
// compiler's export data: one `go list -export -deps` call builds (or finds
// in the build cache) the export file of every listed package and its
// dependencies. Type-checking the standard library from source instead
// costs more than all the rules together.
func stdImporter(fset *token.FileSet, dir string, paths []string) (types.Importer, error) {
	exports := map[string]string{}
	if len(paths) > 0 { // an empty list would name the package in dir
		args := append([]string{"list", "-export", "-deps",
			"-f", "{{if .Standard}}{{.ImportPath}} {{.Export}}{{end}}"}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("geslint: go list -export: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, " "); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("geslint: no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

// skipDir reports whether a directory subtree is outside the analysis scope.
func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// LoadModule loads every non-test package under the module rooted at (or
// above) dir. Directories without buildable Go files are skipped silently.
func LoadModule(dir string) (*Module, error) {
	root, modpath, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	ld := &loader{root: root, modpath: modpath, fset: token.NewFileSet(), pkgs: map[string]*Package{}}
	var paths, std []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, werr error) error {
		if werr != nil || !d.IsDir() {
			return werr
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		// build.ImportDir applies the build constraints of the default
		// context: _test files, other-platform files, and files behind
		// custom tags (the gesassert pair) are resolved exactly as a release
		// `go build` would.
		bpkg, berr := build.Default.ImportDir(path, 0)
		if berr != nil || len(bpkg.GoFiles) == 0 {
			return nil // no buildable non-test Go files here
		}
		pkg, perr := ld.parse(path, bpkg.GoFiles)
		if perr != nil {
			return perr
		}
		ld.pkgs[pkg.ImportPath] = pkg
		paths = append(paths, pkg.ImportPath)
		for _, imp := range bpkg.Imports {
			if imp != "C" && !ld.inModule(imp) && !seen[imp] {
				seen[imp] = true
				std = append(std, imp)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ld.std, err = stdImporter(ld.fset, root, std); err != nil {
		return nil, err
	}
	sort.Strings(paths)
	mod := &Module{Root: root, Path: modpath, Fset: ld.fset}
	for _, path := range paths {
		pkg, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		mod.Pkgs = append(mod.Pkgs, pkg)
	}
	return mod, nil
}
