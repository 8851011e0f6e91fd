package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// DeadExport flags exported API nothing calls: an exported function,
// method, variable or constant of a non-main package that no non-test file
// of the loaded program references. A method whose name some interface type
// of the program declares is not reported, since it may be reached through
// that interface; neither are Error and String, which the runtime and fmt
// reach through error and fmt.Stringer. The rule needs the whole module
// loaded (madlint ./...): a package linted alone sees none of its callers.
// References are matched by package path and name (receiver type included,
// as in funcKey), because each root package is type-checked against the
// others' export data and the two views share no types.Object. An export
// kept for a caller outside the module (bench/, a test of another package)
// says so in a //madlint:ignore deadexport directive.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported identifiers must be referenced by some non-test file of the module",
	Run:  runDeadExport,
}

// exportUse is the whole-program reference index deadexport builds once.
type exportUse struct {
	refs       map[string]bool // objKey of every referenced object
	ifaceNames map[string]bool // method names declared by interface types
}

// objKey names a package-level object or method, "" for anything else.
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return funcKey(f)
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func buildExportUse(prog *Program) *exportUse {
	u := &exportUse{refs: make(map[string]bool), ifaceNames: map[string]bool{"Error": true, "String": true}}
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						u.ifaceNames[it.Method(i).Name()] = true
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				// A function's calls of itself do not keep it alive.
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						self = funcKey(obj)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil {
							if key := objKey(obj); key != "" && key != self {
								u.refs[key] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return u
}

func runDeadExport(pass *Pass) []Diagnostic {
	if pass.Pkg.Types.Name() == "main" {
		return nil
	}
	if pass.Prog.exports == nil {
		pass.Prog.exports = buildExportUse(pass.Prog)
	}
	u := pass.Prog.exports

	var out []Diagnostic
	for id, obj := range pass.Pkg.Info.Defs {
		if obj == nil || !obj.Exported() {
			continue
		}
		kind := ""
		switch obj := obj.(type) {
		case *types.Func:
			kind = "func"
			if obj.Type().(*types.Signature).Recv() != nil {
				if u.ifaceNames[obj.Name()] {
					continue
				}
				kind = "method"
			}
		case *types.Var:
			kind = "var"
		case *types.Const:
			kind = "const"
		}
		key := objKey(obj)
		if kind == "" || key == "" || u.refs[key] {
			continue
		}
		out = append(out, Diagnostic{Pos: id.Pos(), Message: fmt.Sprintf(
			"exported %s %s is referenced by no non-test file of the module: delete it, unexport it, or say why it stays",
			kind, obj.Name())})
	}
	return out
}
