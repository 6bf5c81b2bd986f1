package synclint

import (
	"go/ast"
)

// KernelAPIAnalyzer checks the kernel's process-identity contract:
//
//  1. a *kernel.Proc belongs to exactly one process — a spawned body
//     that captures an enclosing function's Proc would park, yield, or
//     unpark on behalf of the wrong process;
//  2. kernel operations are meaningless after Run returns — the
//     scheduler has shut down, so a Spawn after Run can never execute.
var KernelAPIAnalyzer = &Analyzer{
	Name: "kernelapi",
	Doc:  "*kernel.Proc captured across a Spawn boundary, or kernel ops after Run returns",
	run:  runKernelAPI,
}

func runKernelAPI(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkProcCapture(pass, fd)
			checkPostRun(pass, fd)
		}
	}
}

// procParams returns the names of *kernel.Proc parameters of a function
// type.
func procParams(ft *ast.FuncType) []string {
	var out []string
	if ft.Params == nil {
		return out
	}
	for _, p := range ft.Params.List {
		if star, ok := p.Type.(*ast.StarExpr); ok && isProcType(star) {
			for _, id := range p.Names {
				out = append(out, id.Name)
			}
		}
	}
	return out
}

// checkProcCapture walks the declaration keeping the set of Proc names
// in scope; inside a spawned body, references to Proc names declared
// OUTSIDE that body are reported.
func checkProcCapture(pass *Pass, fd *ast.FuncDecl) {
	// scope maps a Proc identifier to whether it is tainted (declared
	// outside the innermost spawn boundary).
	var walk func(n ast.Node, scope map[string]bool)
	walk = func(n ast.Node, scope map[string]bool) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.Ident:
			if scope[x.Name] {
				pass.reportf(x.Pos(), "spawned process body captures %s, a *kernel.Proc of the enclosing process", x.Name)
				// Report each name once per spawn body.
				scope[x.Name] = false
			}
			return
		case *ast.AssignStmt:
			if x.Tok.String() == ":=" {
				for _, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						// A new local shadows any tainted Proc.
						delete(scope, id.Name)
					}
				}
			}
		case *ast.CallExpr:
			op := classifyCall(x)
			if op.Class == OpSpawn {
				for _, a := range x.Args {
					lit, ok := a.(*ast.FuncLit)
					if !ok {
						walk(a, scope)
						continue
					}
					inner := map[string]bool{}
					for name := range scope {
						inner[name] = true // everything outer is now foreign
					}
					for _, name := range procParams(lit.Type) {
						inner[name] = false // the body's own Proc
					}
					walk(lit.Body, inner)
				}
				walk(x.Fun, scope)
				return
			}
		case *ast.FuncLit:
			// A non-spawn closure runs on the declaring process: its own
			// Proc params enter scope untainted, outer taint persists.
			inner := map[string]bool{}
			for name, t := range scope {
				inner[name] = t
			}
			for _, name := range procParams(x.Type) {
				inner[name] = false
			}
			walk(x.Body, inner)
			return
		case *ast.SelectorExpr:
			walk(x.X, scope)
			return
		case *ast.KeyValueExpr:
			walk(x.Value, scope)
			return
		}
		for _, c := range childNodes(n) {
			walk(c, scope)
		}
	}
	scope := map[string]bool{}
	for _, name := range procParams(fd.Type) {
		scope[name] = false // in scope, not tainted
	}
	walk(fd.Body, scope)
}

// checkPostRun reports kernel operations that appear, in statement
// order, after a Run() call on the same kernel variable in the same
// function body (closures are excluded: they execute during Run).
func checkPostRun(pass *Pass, fd *ast.FuncDecl) {
	ran := map[string]bool{} // kernel var name -> Run() seen
	anyRan := ""
	var scanStmt func(s ast.Stmt)
	scanExpr := func(e ast.Node) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			op := classifyCall(call)
			recvName := ""
			if op.Recv != nil {
				if id, ok := op.Recv.(*ast.Ident); ok {
					recvName = id.Name
				}
			}
			switch op.Class {
			case OpRun:
				if recvName != "" {
					ran[recvName] = true
					anyRan = recvName
				}
			case OpSpawn:
				if recvName != "" && ran[recvName] {
					pass.reportf(call.Pos(), "Spawn on %s after %s.Run() returned: the scheduler has shut down", recvName, recvName)
				}
			default:
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					// Reset revives a finished SimKernel for another
					// Spawn/Run cycle (run recycling), and Close only
					// releases its pooled workers — neither leaves the
					// kernel in the shut-down state, so both clear the
					// post-Run taint for their receiver.
					if name := sel.Sel.Name; name == "Reset" || name == "Close" {
						if id, ok := sel.X.(*ast.Ident); ok && ran[id.Name] {
							delete(ran, id.Name)
							if anyRan == id.Name {
								anyRan = ""
							}
						}
						return true
					}
					if anyRan != "" {
						switch sel.Sel.Name {
						case "Park", "Unpark", "Yield":
							if len(call.Args) == 0 {
								pass.reportf(call.Pos(), "%s after %s.Run() returned: no process is scheduled anymore",
									sel.Sel.Name, anyRan)
							}
						}
					}
				}
			}
			return true
		})
	}
	scanStmt = func(s ast.Stmt) {
		switch x := s.(type) {
		case *ast.AssignStmt:
			// Re-binding the kernel variable resets its Run state.
			for _, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && ran[id.Name] {
					delete(ran, id.Name)
					if anyRan == id.Name {
						anyRan = ""
					}
				}
			}
			scanExpr(x)
		case *ast.BlockStmt:
			for _, s2 := range x.List {
				scanStmt(s2)
			}
		case *ast.IfStmt:
			scanExpr(x.Init)
			scanExpr(x.Cond)
			scanStmt(x.Body)
			if x.Else != nil {
				scanStmt(x.Else)
			}
		case *ast.ForStmt:
			scanExpr(x.Init)
			scanExpr(x.Cond)
			scanStmt(x.Body)
			scanExpr(x.Post)
		case *ast.RangeStmt:
			scanExpr(x.X)
			scanStmt(x.Body)
		case *ast.SwitchStmt:
			scanExpr(x.Init)
			scanExpr(x.Tag)
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, s2 := range cc.Body {
						scanStmt(s2)
					}
				}
			}
		default:
			scanExpr(s)
		}
	}
	for _, s := range fd.Body.List {
		scanStmt(s)
	}
}
