package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// VtimeCtx flags blocking virtual-time primitives reaching code that runs
// in scheduler context. vtime's blocking calls (Sem.Acquire, Event.Wait,
// Queue.Pop, Scheduler.Sleep, ...) park the calling task and panic with
// "called outside a running task" when invoked from a timer callback or a
// delivery hook — contexts where there IS no task to park. The analyzer
// seeds a may-block set with those primitives (and vtime's internal
// cur/switchOut), propagates it over the statically resolvable call graph
// of every loaded package, and then checks the three places the simulator
// installs scheduler-context callbacks:
//
//   - function arguments to Scheduler.At / Scheduler.After (timer callbacks)
//   - function arguments to Event.OnFire (fire subscribers)
//   - assignments to netsim Endpoint.OnDeliver (packet delivery hooks)
//
// Calls through interfaces and non-trivial function values are not
// resolved — a task body stored in a variable and later passed to At will
// slip through. The check is sound for the direct styles the codebase
// uses; it is a tripwire, not a proof.
var VtimeCtx = &Analyzer{
	Name: "vtimectx",
	Doc:  "vtime-blocking calls must not be reachable from scheduler-context callbacks",
	Run:  runVtimeCtx,
}

const netsimPath = "mpichmad/internal/netsim"

// blockSeeds are the vtime functions that require a running task, keyed
// by funcKey form "pkgpath.Type.Method" / "pkgpath.Func". Seeding the
// public primitives (not just cur/switchOut) keeps the analysis correct
// when vtime itself is outside the analyzed package set and only its
// export data is visible.
var blockSeeds = map[string]bool{
	vtimePath + ".Scheduler.cur":       true,
	vtimePath + ".Scheduler.switchOut": true,
	vtimePath + ".Scheduler.Sleep":     true,
	vtimePath + ".Scheduler.Yield":     true,
	vtimePath + ".Sem.Acquire":         true,
	vtimePath + ".Event.Wait":          true,
	vtimePath + ".Queue.Pop":           true,
	vtimePath + ".Queue.PopTimeout":    true,
	vtimePath + ".Queue.PopPoll":       true,
}

// entryMethods are the scheduler-context registration points: calls to
// these methods must only receive non-blocking function arguments.
var entryMethods = map[string]string{
	vtimePath + ".Scheduler.At":    "vtime timer callback (Scheduler.At)",
	vtimePath + ".Scheduler.After": "vtime timer callback (Scheduler.After)",
	vtimePath + ".Event.OnFire":    "vtime fire subscriber (Event.OnFire)",
}

// funcNode is one function (or function literal) in the call graph.
type funcNode struct {
	key     string
	pos     token.Pos
	calls   []string // funcKeys of statically resolved callees
	blocks  bool
	witness string // one blocking callee, for the message
}

// blockGraph is the whole-program may-block analysis result.
type blockGraph struct {
	nodes map[string]*funcNode
}

// funcKey names a function object package-qualified and receiver-
// qualified, stable across source-loaded and export-data-loaded views of
// the same function: "pkg/path.Name" or "pkg/path.Recv.Name". Generic
// instantiations collapse onto their origin.
func funcKey(f *types.Func) string {
	f = f.Origin()
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
		}
		return "" // interface method or unusual receiver: unresolvable
	}
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path() + "." + f.Name()
}

// litKey names a function literal by position.
func litKey(fset *token.FileSet, lit *ast.FuncLit) string {
	return "lit@" + fset.Position(lit.Pos()).String()
}

// calleeKey statically resolves a call expression's target, "" if it
// cannot (interface dispatch, plain function values).
func calleeKey(pass *Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.Pkg.Info.Uses[fun].(*types.Func); ok {
			return funcKey(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					return "" // dynamic dispatch: blind spot by design
				}
				return funcKey(f)
			}
			return ""
		}
		if f, ok := pass.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return funcKey(f) // package-qualified call
		}
	case *ast.FuncLit:
		return litKey(pass.Fset, fun)
	}
	return ""
}

// funcExprKey resolves a function-valued expression (a callback argument
// or hook assignment) to a graph key, "" if unresolvable.
func funcExprKey(pass *Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return litKey(pass.Fset, e)
	case *ast.Ident:
		if f, ok := pass.Pkg.Info.Uses[e].(*types.Func); ok {
			return funcKey(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return funcKey(f) // method value, e.g. ch.deliver
			}
		}
		if f, ok := pass.Pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return funcKey(f)
		}
	}
	return ""
}

// buildBlockGraph scans every loaded package once and runs the may-block
// fixpoint.
func buildBlockGraph(prog *Program) *blockGraph {
	g := &blockGraph{nodes: make(map[string]*funcNode)}
	node := func(key string, pos token.Pos) *funcNode {
		n := g.nodes[key]
		if n == nil {
			n = &funcNode{key: key, pos: pos}
			g.nodes[key] = n
		}
		return n
	}

	for _, pkg := range prog.Pkgs {
		pass := &Pass{Prog: prog, Pkg: pkg, Fset: prog.Fset}
		for _, f := range pkg.Files {
			// Collect the direct calls of every function declaration and
			// literal. A stack tracks the innermost enclosing function.
			var stack []*funcNode
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					var key string
					if obj, ok := pkg.Info.Defs[n.Name].(*types.Func); ok {
						key = funcKey(obj)
					}
					if key == "" || n.Body == nil {
						return false
					}
					fn := node(key, n.Pos())
					stack = append(stack, fn)
					ast.Inspect(n.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				case *ast.FuncLit:
					fn := node(litKey(prog.Fset, n), n.Pos())
					stack = append(stack, fn)
					ast.Inspect(n.Body, walk)
					stack = stack[:len(stack)-1]
					return false
				case *ast.CallExpr:
					if len(stack) > 0 {
						if key := calleeKey(pass, n); key != "" {
							cur := stack[len(stack)-1]
							cur.calls = append(cur.calls, key)
						}
					}
				}
				return true
			}
			ast.Inspect(f, walk)
		}
	}

	// Fixpoint: a node blocks if it is a seed or calls a blocking node.
	for key := range blockSeeds {
		node(key, token.NoPos).blocks = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			if n.blocks {
				continue
			}
			for _, callee := range n.calls {
				target := g.nodes[callee]
				if (target != nil && target.blocks) || blockSeeds[callee] {
					n.blocks = true
					n.witness = callee
					changed = true
					break
				}
			}
		}
	}
	return g
}

// mayBlock reports whether key is in the may-block set, with a short
// call-chain witness for the diagnostic.
func (g *blockGraph) mayBlock(key string) (bool, string) {
	chain := key
	for hops := 0; hops < 20; hops++ {
		n := g.nodes[chain]
		if n == nil {
			return blockSeeds[chain], chain
		}
		if !n.blocks {
			return false, ""
		}
		if n.witness == "" {
			return true, chain
		}
		chain = n.witness
	}
	return true, chain
}

func runVtimeCtx(pass *Pass) []Diagnostic {
	if pass.Prog.blockers == nil {
		pass.Prog.blockers = buildBlockGraph(pass.Prog)
	}
	g := pass.Prog.blockers

	var out []Diagnostic
	check := func(e ast.Expr, context string) {
		key := funcExprKey(pass, e)
		if key == "" {
			return
		}
		if blocks, via := g.mayBlock(key); blocks {
			out = append(out, Diagnostic{Pos: e.Pos(), Message: fmt.Sprintf(
				"%s runs in scheduler context but may block in virtual time (reaches %s)",
				context, via)})
		}
	}

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				key := calleeKey(pass, n)
				context, isEntry := entryMethods[key]
				if !isEntry {
					return true
				}
				for _, arg := range n.Args {
					if tv, ok := pass.Pkg.Info.Types[arg]; ok {
						if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
							check(arg, context)
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if isOnDeliver(pass, lhs) {
						check(n.Rhs[i], "netsim delivery hook (Endpoint.OnDeliver)")
					}
				}
			case *ast.CompositeLit:
				tv, ok := pass.Pkg.Info.Types[n]
				if !ok || !isNetsimEndpoint(tv.Type) {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "OnDeliver" {
							check(kv.Value, "netsim delivery hook (Endpoint.OnDeliver)")
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// isOnDeliver reports whether lhs selects the OnDeliver field of a netsim
// Endpoint.
func isOnDeliver(pass *Pass, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "OnDeliver" {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	return isNetsimEndpoint(t)
}

func isNetsimEndpoint(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Endpoint" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == netsimPath
}
