package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces the simulator's "no wall clock, no real
// concurrency, no map-order effects" rules inside simulation packages
// (everything under internal/ except this linter, plus any file marked
// //madlint:simulation):
//
//   - time.Now/Sleep/After and friends are forbidden: the simulation runs
//     in virtual time (vtime) and a wall-clock read makes runs diverge.
//   - the global math/rand source is forbidden: randomness must flow from
//     an explicit seed (netsim.PRNG) so runs are bit-identical.
//   - raw `go` statements, sync.Mutex/RWMutex/WaitGroup/Cond and native
//     channels are forbidden, vtime included (its tasks are coroutines,
//     not goroutines): all concurrency is cooperative, mediated by the
//     scheduler.
//   - a `for range` over a map whose body drives the scheduler or I/O, or
//     collects elements without a subsequent sort in the same function,
//     leaks Go's randomized map order into simulation behavior.
//   - a float product added or subtracted unconverted (x*y + z, z -= x*y)
//     may be fused into one rounding on a CPU with fused multiply-add
//     (arm64, ppc64le, s390x, riscv64, loong64) and not on amd64, so the
//     same program computes different bits there: the product must be
//     rounded explicitly, float64(x*y) + z.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand, raw concurrency, map-order effects and unrounded float products in simulation code",
	Run:  runDeterminism,
}

const (
	modulePrefix = "mpichmad/internal/"
	lintPath     = "mpichmad/internal/lint"
	vtimePath    = "mpichmad/internal/vtime"
	tracePath    = "mpichmad/internal/trace"
)

// forbiddenTime are the time package functions that read or wait on the
// wall clock.
var forbiddenTime = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Since": true,
	"Until": true,
}

// allowedRand are the math/rand package functions that construct explicit
// seeded generators rather than touching the global source.
var allowedRand = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// forbiddenSync are the sync types that would bypass the vtime scheduler.
var forbiddenSync = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true,
}

// riskyInRange are method names whose invocation from inside a map
// iteration orders scheduler or I/O side effects by Go's randomized map
// order: queue pushes, event fires, sends, task spawns, semaphore
// traffic, packing, output.
var riskyInRange = map[string]bool{
	"Push": true, "Fire": true, "Send": true, "At": true, "After": true,
	"Go": true, "GoDaemon": true, "Acquire": true, "Release": true,
	"Lock": true, "Unlock": true, "Wait": true, "Pop": true,
	"Pack": true, "EndPacking": true, "Compute": true, "Sleep": true,
	"Yield": true, "Printf": true, "Fprintf": true, "Println": true,
	"Fprintln": true, "WriteString": true,
}

func inSimScope(path string) bool {
	return strings.HasPrefix(path, modulePrefix) && !strings.HasPrefix(path, lintPath)
}

func runDeterminism(pass *Pass) []Diagnostic {
	var out []Diagnostic
	for _, f := range pass.Pkg.Files {
		if !inSimScope(pass.Pkg.Path) && !markedSimulation(f) {
			continue
		}
		out = append(out, detFile(pass, f)...)
	}
	return out
}

func detFile(pass *Pass, f *ast.File) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...interface{}) {
		out = append(out, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := pass.Pkg.Info.Uses[n.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch p := obj.Pkg().Path(); {
			case p == "time" && forbiddenTime[obj.Name()]:
				report(n.Pos(), "time.%s reads the wall clock: simulation code runs in virtual time (use vtime)", obj.Name())
			case (p == "math/rand" || p == "math/rand/v2") && !allowedRand[obj.Name()]:
				if _, isFunc := obj.(*types.Func); isFunc {
					report(n.Pos(), "global math/rand.%s is seeded per process: use an explicitly seeded generator (netsim.PRNG)", obj.Name())
				}
			case p == "sync" && forbiddenSync[obj.Name()]:
				report(n.Pos(), "sync.%s bypasses the vtime scheduler: use vtime.Sem/Event/Queue", obj.Name())
			}
		case *ast.GoStmt:
			report(n.Pos(), "raw go statement runs beside the scheduler's one running task: use vtime Scheduler.Go/GoDaemon")
		case *ast.ChanType:
			report(n.Pos(), "native channel in simulation code: use vtime.Queue/Event")
		case *ast.SendStmt:
			report(n.Pos(), "native channel send in simulation code: use vtime.Queue/Event")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "native channel receive in simulation code: use vtime.Queue/Event")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select over native channels in simulation code: use vtime primitives")
		case *ast.BinaryExpr:
			if n.Op == token.ADD || n.Op == token.SUB {
				for _, x := range []ast.Expr{n.X, n.Y} {
					if p := floatProduct(pass, x); p != nil {
						report(p.Pos(), fusedMsg)
					}
				}
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Rhs) == 1 {
				if p := floatProduct(pass, n.Rhs[0]); p != nil {
					report(p.Pos(), fusedMsg)
				}
			}
		}
		return true
	})

	// Map-range checks need the enclosing function body as the scope in
	// which a collected slice may still be sorted.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		bodies := []*ast.BlockStmt{fd.Body}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				bodies = append(bodies, lit.Body)
			}
			return true
		})
		for _, body := range bodies {
			out = append(out, detMapRanges(pass, body)...)
		}
	}
	return out
}

const fusedMsg = "float product added unrounded: a CPU with fused multiply-add may round x*y + z once, amd64 rounds twice; convert the product to its type, float64(x*y)"

// floatProduct returns e, parentheses stripped, if it is a non-constant
// float multiplication that no conversion rounds.
func floatProduct(pass *Pass, e ast.Expr) *ast.BinaryExpr {
	m, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || m.Op != token.MUL {
		return nil
	}
	tv, ok := pass.Pkg.Info.Types[m]
	if !ok || tv.Value != nil {
		return nil
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return nil
	}
	return m
}

// detMapRanges flags map iterations in body (excluding nested function
// literals, which get their own scope) whose bodies have order-sensitive
// effects.
func detMapRanges(pass *Pass, body *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope, walked on its own
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		out = append(out, detOneMapRange(pass, body, rng)...)
		return true
	})
	return out
}

func detOneMapRange(pass *Pass, scope *ast.BlockStmt, rng *ast.RangeStmt) []Diagnostic {
	var out []Diagnostic
	appended := make(map[types.Object]token.Pos)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && riskyInRange[sel.Sel.Name] {
				if obj := pass.Pkg.Info.Uses[sel.Sel]; obj != nil {
					if fn, isFunc := obj.(*types.Func); isFunc {
						// Trace sinks (internal/trace) are exempt: they
						// append to in-memory buffers and never touch the
						// scheduler or I/O, so their call order cannot
						// leak map order into simulation behavior. The
						// wall-clock/rand/concurrency rules still apply to
						// the trace package's own code.
						if fn.Pkg() != nil && fn.Pkg().Path() == tracePath {
							return true
						}
						out = append(out, Diagnostic{Pos: n.Pos(), Message: fmt.Sprintf(
							"%s called while ranging over a map: side effects follow Go's randomized map order (iterate sorted keys instead)",
							sel.Sel.Name)})
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					continue
				}
				if b, ok := pass.Pkg.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := identObj(pass, id); obj != nil {
						appended[obj] = call.Pos()
					}
				}
			}
		}
		return true
	})

	for obj, pos := range appended {
		if !sortedAfter(pass, scope, rng, obj) {
			out = append(out, Diagnostic{Pos: pos, Message: fmt.Sprintf(
				"%q collects map elements in randomized order and is never sorted in this function: sort it (or the keys) before use",
				obj.Name())})
		}
	}
	return out
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Pkg.Info.Defs[id]
}

// sortedAfter reports whether obj is passed to a sort/slices call after
// the map range, anywhere in the enclosing function body.
func sortedAfter(pass *Pass, scope *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && identObj(pass, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
