package synclint

import (
	"go/ast"
	"go/token"
	"sort"
)

// EscapeAnalyzer checks whether a solution type's resource state is only
// touched under its synchronization mechanism, and HOW it is protected:
//
//   - structural: the access sits inside a closure the mechanism itself
//     runs (a CCR body, a path-expression operation, a serializer
//     guarantee) — the mechanism associates synchronization with the
//     resource, the paper's §2 encapsulation requirement;
//   - discipline: the access sits between an acquire and a release the
//     programmer wrote (Enter/Exit, Lock/Unlock, P/V) — correct, but
//     only by convention;
//   - escaped: neither — a finding.
//
// The per-type tally mechanically derives the Encapsulation column of
// the T3 modularity table: a type is mechanism-bound if it has no
// mutable resource state at all or at least one structural access, and a
// mechanism is rated encapsulated when a majority of its solution types
// are bound.
var EscapeAnalyzer = &Analyzer{
	Name: "escape",
	Doc:  "resource-state fields accessed outside the solution's bracketed operations",
	run:  runEscape,
}

func runEscape(pass *Pass) {
	analyzeEscape(pass.Pkg, pass.Model, pass)
}

// TypeEscape is the escape tally for one solution type.
type TypeEscape struct {
	Type          string
	MutableFields []string
	// Access counts by protection class.
	Structural, Discipline, Escaped int
}

// Bound reports whether the mechanism itself is associated with the
// type's resource state (no mutable state, or state the mechanism runs).
func (t TypeEscape) Bound() bool {
	return len(t.MutableFields) == 0 || t.Structural > 0
}

// EscapeSummary is the per-package escape tally.
type EscapeSummary struct {
	Types []TypeEscape
}

// BoundCount counts mechanism-bound types.
func (s EscapeSummary) BoundCount() int {
	n := 0
	for _, t := range s.Types {
		if t.Bound() {
			n++
		}
	}
	return n
}

// Encapsulated is the mechanical T3 verdict: a majority of the package's
// solution types are mechanism-bound.
func (s EscapeSummary) Encapsulated() bool {
	return len(s.Types) > 0 && 2*s.BoundCount() > len(s.Types)
}

// AnalyzeEscape runs the escape analysis standalone and returns the
// summary used by eval's T3 report alongside any findings.
func AnalyzeEscape(pkg *Package) (EscapeSummary, []Finding) {
	model := buildModel(pkg)
	pass := &Pass{Pkg: pkg, Model: model, analyzer: EscapeAnalyzer}
	sum := analyzeEscape(pkg, model, pass)
	return sum, pass.findings
}

// Protection classes, ordered so higher is stronger.
const (
	ctxNone = iota
	ctxDiscipline
	ctxStructural
)

type escAccess struct {
	field  string
	method string
	ctx    int
	pos    token.Pos
}

type escCallSite struct {
	callee string // method key "Type.Name"
	ctx    int
}

func analyzeEscape(pkg *Package, model *Model, pass *Pass) EscapeSummary {
	sum := EscapeSummary{}
	if !model.UsesMechanisms {
		// A package importing no mechanism has no bracket discipline to
		// escape from; the analyzer is vacuous there (the kernel, trace,
		// and exploration substrate).
		return sum
	}
	var names []string
	for name, si := range model.Structs {
		if si.ProcMethods > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	accesses := map[string][]escAccess{}    // struct -> accesses
	callSites := map[string][]escCallSite{} // enclosing method key -> sites

	for _, name := range names {
		si := model.Structs[name]
		for _, fi := range model.Funcs {
			if fi.Recv != name || fi.Decl.Body == nil {
				continue
			}
			w := &escWalk{
				pkg: pkg, model: model, si: si, fn: fi,
				methodKey: fi.Name,
			}
			w.walk(fi.Decl.Body, ctxNone)
			accesses[name] = append(accesses[name], w.accesses...)
			callSites[fi.Name] = append(callSites[fi.Name], w.calls...)
		}
	}

	// Ambient protection: a helper method whose every intra-package call
	// site is protected inherits the weakest caller protection. Iterate
	// to a fixed point for helper-calling-helper chains.
	ambient := map[string]int{}
	for i := 0; i < 4; i++ {
		changed := false
		siteCtxByCallee := map[string][]int{}
		for caller, sites := range callSites {
			for _, s := range sites {
				eff := s.ctx
				if a := ambient[caller]; a > eff {
					eff = a
				}
				siteCtxByCallee[s.callee] = append(siteCtxByCallee[s.callee], eff)
			}
		}
		for callee, ctxs := range siteCtxByCallee {
			meet := ctxStructural
			for _, c := range ctxs {
				if c < meet {
					meet = c
				}
			}
			if ambient[callee] != meet {
				ambient[callee] = meet
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for _, name := range names {
		si := model.Structs[name]
		te := TypeEscape{Type: name}
		for f := range si.Mutable {
			te.MutableFields = append(te.MutableFields, f)
		}
		sort.Strings(te.MutableFields)
		for _, a := range accesses[name] {
			eff := a.ctx
			if amb := ambient[a.method]; a.ctx == ctxNone && amb > eff {
				eff = amb
			}
			switch eff {
			case ctxStructural:
				te.Structural++
			case ctxDiscipline:
				te.Discipline++
			default:
				te.Escaped++
				if pass != nil {
					pass.reportf(a.pos, "state field %s.%s accessed outside any synchronization bracket in %s",
						name, a.field, a.method)
				}
			}
		}
		sum.Types = append(sum.Types, te)
	}
	return sum
}

type escWalk struct {
	pkg       *Package
	model     *Model
	si        *StructInfo
	fn        *FuncInfo
	methodKey string
	depth     int
	sticky    bool
	accesses  []escAccess
	calls     []escCallSite
}

func (w *escWalk) ctx(structural bool) int {
	if structural {
		return ctxStructural
	}
	if w.depth > 0 || w.sticky {
		return ctxDiscipline
	}
	return ctxNone
}

// walk traverses in syntactic order; structural marks subtrees that are
// closures run by a mechanism operation.
func (w *escWalk) walk(n ast.Node, ctx int) {
	structural := ctx == ctxStructural
	switch x := n.(type) {
	case nil:
		return
	case *ast.IfStmt:
		// Branches are separate paths: a release inside the then-branch
		// must not strip protection from the else-branch, and a branch
		// that returns (unlock-early-and-exit) does not constrain the
		// fall-through. Afterwards keep the weakest surviving branch.
		w.walk(x.Init, ctx)
		w.walk(x.Cond, ctx)
		entryD, entryS := w.depth, w.sticky
		type exitState struct {
			d int
			s bool
		}
		var exits []exitState
		runBranch := func(s ast.Stmt) {
			w.depth, w.sticky = entryD, entryS
			w.walk(s, ctx)
			if !stmtTerminates(s) {
				exits = append(exits, exitState{w.depth, w.sticky})
			}
		}
		runBranch(x.Body)
		if x.Else != nil {
			runBranch(x.Else)
		} else {
			exits = append(exits, exitState{entryD, entryS})
		}
		w.depth, w.sticky = entryD, entryS
		for i, e := range exits {
			if i == 0 || e.d < w.depth {
				w.depth = e.d
			}
			w.sticky = w.sticky && e.s
		}
		return
	case *ast.CallExpr:
		op := classifyCall(x)
		switch op.Class {
		case OpAcquire, OpSemP:
			w.walkChildren(x, ctx)
			w.depth++
			return
		case OpRelease, OpSemV:
			w.walkChildren(x, ctx)
			if w.depth > 0 {
				w.depth--
			}
			return
		case OpNone:
			w.recordCall(x, structural)
		default:
			// Mechanism op with closure payloads: plain args keep the
			// current context, closures become structural (guards and
			// bodies run by the mechanism) or a fresh frame (crowd
			// bodies, spawned processes — already unsynchronized, keep
			// current context which is what the access would get).
			protected, released := closureArgs(op)
			isClosure := map[*ast.FuncLit]bool{}
			for _, l := range protected {
				isClosure[l] = true
			}
			for _, l := range released {
				isClosure[l] = true
			}
			for _, a := range x.Args {
				if lit, ok := a.(*ast.FuncLit); ok && isClosure[lit] {
					continue
				}
				w.walk(a, ctx)
			}
			for _, l := range protected {
				w.walk(l.Body, ctxStructural)
			}
			for _, l := range released {
				savedDepth, savedSticky := w.depth, w.sticky
				w.depth, w.sticky = 0, false
				w.walk(l.Body, ctxNone)
				w.depth, w.sticky = savedDepth, savedSticky
			}
			return
		}
	case *ast.SelectorExpr:
		if base, ok := x.X.(*ast.Ident); ok && base.Name == w.fn.RecvVar {
			if w.si.Mutable[x.Sel.Name] {
				w.accesses = append(w.accesses, escAccess{
					field:  x.Sel.Name,
					method: w.methodKey,
					ctx:    w.ctx(structural),
					pos:    x.Pos(),
				})
			}
			return
		}
	case *ast.FuncLit:
		// A bare closure (not a mechanism payload): its body runs in an
		// unknown dynamic context; analyze with the current one.
		w.walk(x.Body, ctx)
		return
	}
	w.walkChildren(n, ctx)
}

// stmtTerminates reports whether a statement always leaves the function
// (the shapes the solutions use; goto-style exotica is out of scope).
func stmtTerminates(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		if len(x.List) == 0 {
			return false
		}
		return stmtTerminates(x.List[len(x.List)-1])
	case *ast.IfStmt:
		return x.Else != nil && stmtTerminates(x.Body) && stmtTerminates(x.Else)
	}
	return false
}

func (w *escWalk) walkChildren(n ast.Node, ctx int) {
	for _, c := range childNodes(n) {
		w.walk(c, ctx)
	}
}

// recordCall notes helper-method call sites (for ambient protection) and
// applies the sticky-touch rule: after a call into a helper that itself
// performs mechanism operations (d.lock(p) wrapping set.Exec), treat the
// rest of the method as discipline-covered.
func (w *escWalk) recordCall(call *ast.CallExpr, structural bool) {
	key := w.model.resolveCall(w.fn, nil, call)
	if key == "" {
		if id, ok := call.Fun.(*ast.Ident); ok && w.model.Funcs[id.Name] != nil {
			key = id.Name
		}
	}
	if key == "" {
		return
	}
	if s := w.model.Summaries[key]; s != nil && len(s.Acquires)+len(s.Parks)+len(s.NetReleased) > 0 {
		w.sticky = true
	}
	if w.model.Structs[w.fn.Recv] != nil && w.model.Funcs[key] != nil && w.model.Funcs[key].Recv == w.fn.Recv {
		w.calls = append(w.calls, escCallSite{callee: key, ctx: w.ctx(structural)})
	}
}
