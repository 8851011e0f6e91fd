package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single package and
// returns raw diagnostics; the driver attaches the analyzer name, filters
// suppressed findings and sorts.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) []Diagnostic
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Prog *Program
	Pkg  *Package
	Fset *token.FileSet
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: [analyzer] message form.
func (d Diagnostic) String(fset *token.FileSet) string {
	return fmt.Sprintf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PktSwitch, VtimeCtx, DeadExport}
}

// Run applies the analyzers to every package of prog, honoring
// //madlint:ignore directives, and returns the surviving diagnostics
// sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		ign := ignoreIndex(prog.Fset, pkg)
		for _, a := range analyzers {
			pass := &Pass{Prog: prog, Pkg: pkg, Fset: prog.Fset}
			for _, d := range a.Run(pass) {
				d.Analyzer = a.Name
				if !ign.suppressed(prog.Fset, d) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := prog.Fset.Position(out[i].Pos), prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ignores maps "file:line" to the analyzer names suppressed there. A
// directive comment
//
//	//madlint:ignore <analyzer> [reason]
//
// suppresses findings of that analyzer on its own line and on the line
// directly below (so it can sit above the offending statement). In the doc
// comment of a parenthesized declaration group it covers the whole group.
type ignores map[string]map[string]bool

func ignoreIndex(fset *token.FileSet, pkg *Package) ignores {
	idx := make(ignores)
	add := func(c *ast.Comment, last int) {
		rest, ok := strings.CutPrefix(c.Text, "//madlint:ignore")
		fields := strings.Fields(rest)
		if !ok || len(fields) == 0 {
			return
		}
		pos := fset.Position(c.Pos())
		for line := pos.Line; line <= max(last, pos.Line+1); line++ {
			key := fmt.Sprintf("%s:%d", pos.Filename, line)
			if idx[key] == nil {
				idx[key] = make(map[string]bool)
			}
			idx[key][fields[0]] = true
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				add(c, 0)
			}
		}
		for _, d := range f.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Lparen.IsValid() && g.Doc != nil {
				for _, c := range g.Doc.List {
					add(c, fset.Position(g.Rparen).Line)
				}
			}
		}
	}
	return idx
}

func (idx ignores) suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	return idx[key][d.Analyzer]
}

// markedSimulation reports whether the file carries a
// //madlint:simulation directive, opting it into the determinism rules
// regardless of its import path. Fixture and out-of-tree simulation code
// use it.
func markedSimulation(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == "//madlint:simulation" {
				return true
			}
		}
	}
	return false
}
