// Package lint is madlint's engine: a stdlib-only loader plus the four
// analyzers (determinism, pktswitch, vtimectx, deadexport) that
// machine-check the simulator's coding rules. The toolchain's go/analysis
// framework lives in an external module this repository deliberately does
// not depend on, so the package reimplements the small slice it needs: load
// packages with
// full type information, walk their syntax, report positioned diagnostics,
// honor //madlint:ignore suppressions.
//
// Loading strategy: `go list -export -deps -json` compiles the requested
// packages and hands back export data for every dependency. The root
// packages (the ones being linted) are re-parsed and type-checked from
// source so the analyzers get syntax trees wired to types.Info; their
// imports resolve through the compiler's export data, which keeps the
// loader fast and works without network access or external modules.
package lint

import (
	"bytes"
	"encoding/json"
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
	"runtime"
)

// Package is one root package under analysis: syntax plus type information.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded set of root packages sharing one FileSet. The
// vtimectx and deadexport analyzers build their whole-program indexes
// lazily and cache them here.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	blockers *blockGraph // lazily built by vtimectx
	exports  *exportUse  // lazily built by deadexport
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
}

// Load compiles and loads the packages matched by patterns (working
// directory dir; "" for the current one). Only non-test Go files are
// analyzed: test files may use real concurrency to exercise the scheduler
// from outside.
func Load(dir string, patterns []string) (*Program, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,DepOnly,Standard"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := make(map[string]string)
	var roots []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			roots = append(roots, &q)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	prog := &Program{Fset: fset}
	for _, lp := range roots {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
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
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{
			Importer: imp,
			Sizes:    types.SizesFor("gc", runtime.GOARCH),
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		prog.Pkgs = append(prog.Pkgs, &Package{
			Path:  lp.ImportPath,
			Dir:   lp.Dir,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return prog, nil
}
