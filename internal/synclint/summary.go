package synclint

// The held-lock model. Every function body is walked once, into one
// event stream per frame (acquire, release, park, call), and one replay
// of a frame's stream — the stack of what is held, with each callee's
// summary substituted at its call — is the only held-context walk.
// holdwait, lockorder and lostwakeup consume the replay, each with its
// own view of the stack, and so does the summary fold itself.
//
// Frames. A declared function is a frame. So are the closures bound to
// one of its locals, one frame per local: a callee at each call of that
// local. Every other closure runs in a context of its own and is a frame
// holding nothing: a spawned process, a crowd body (its serializer is
// released while it runs), a closure stored, returned or handed to a
// plain function. A guard or body that a mechanism runs under its own
// protection (Do, Execute, Exec, an Enqueue guarantee, an Await guard)
// is inlined where the operation stands.
//
// Summaries. Every frame gets a summary of the synchronization objects it
// may acquire (exclusion brackets, split-semaphore P's, region and path
// entries) and the points at which it may park, transitively through
// same-package callees. Lock identities are canonical keys from the typed
// layer — a field object, a package-level variable, a parameter position
// — so the same monitor reached through differently spelled expressions
// is one node, and a helper that locks "whatever it is handed" (a
// parameter) is instantiated at each call site with the caller's actual
// lock. Summaries propagate to a fixed point over the package call graph,
// so a chain Request → lockPair → lockOne attributes lockOne's
// acquisition to Request with the full call path preserved for
// diagnostics.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// LockRef identifies one synchronization object as canonically as the
// available information allows. Keys are prefixed by provenance:
//
//	field:<Type>.<field>   a struct field (typed or receiver-inferred)
//	global:<name>          a package-level variable
//	param:<i>              the i'th parameter of the summarized function
//	local:<fn>.<name>      a function-local binding
//	expr:<text>            fallback: the rendered expression
type LockRef struct {
	Key   string
	Class string // "monitor", "serializer", "mutex", "semaphore", "region", "path", ...
	Disp  string // human-readable spelling at the reference site
	// Owner is the key of the monitor, serializer or net a component
	// (condition, queue, crowd, channel) belongs to, "" when unknown: a
	// field's owner from the struct model, a local's from the
	// NewCondition-style call it was bound to.
	Owner string
}

func (r LockRef) valid() bool { return r.Key != "" }

// paramIndex reports whether a key is an unsubstituted parameter, and
// its index.
func paramIndex(key string) (int, bool) {
	rest, ok := strings.CutPrefix(key, "param:")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest)
	return i, err == nil
}

// AcqSite is one (possibly transitive) acquisition or park performed by a
// function.
type AcqSite struct {
	Ref LockRef
	// Op is the operation: an acquisition (Enter, Lock, P, Do, Execute,
	// Exec) or a park (Wait, Enqueue, Join, Await, a channel operation).
	Op OpClass
	// Pos is the position of the operation, or of the call that reaches
	// it when it lies in a callee.
	Pos token.Pos
	// Path is the call chain from the summarized function to the
	// operation, empty for direct operations; each element is rendered
	// "callee (file:line of the call)".
	Path []string
}

// FuncSummary is the interprocedural synchronization footprint of one
// frame.
type FuncSummary struct {
	// Acquires lists locks the function may acquire at some point while
	// running (deduped by key, syntactic order).
	Acquires []AcqSite
	// Parks lists blocking non-bracket operations — condition waits,
	// queue enqueues, crowd joins, region awaits, channel operations —
	// the function may reach, except a park on a component of a lock the
	// function holds itself at that point: that park releases its owner
	// by construction and asks nothing of the caller.
	Parks []AcqSite
	// NetHeld lists locks still held when the function returns on its
	// straight-line path (the `lock` half of a lock/unlock helper pair).
	NetHeld []AcqSite
	// NetReleased lists locks released without a matching acquire (the
	// `unlock` half); callers pop these from their held context.
	NetReleased []AcqSite
}

// refResolver resolves lock expressions inside one declaration and the
// closures it contains.
type refResolver struct {
	m          *Model
	fn         *FuncInfo
	paramIdx   map[string]int       // by name (untyped fallback)
	paramObj   map[types.Object]int // by object (typed)
	localTypes map[string]string
	// localOwner maps a local bound to a component constructor to the
	// constructor's receiver: c := m.NewCondition(...) gives c → m.
	localOwner map[string]ast.Expr
}

func newRefResolver(m *Model, fn *FuncInfo) *refResolver {
	r := &refResolver{
		m:          m,
		fn:         fn,
		paramIdx:   map[string]int{},
		paramObj:   map[types.Object]int{},
		localTypes: m.localTypes(fn),
		localOwner: map[string]ast.Expr{},
	}
	if fn.Decl.Type.Params != nil {
		i := 0
		for _, f := range fn.Decl.Type.Params.List {
			for _, id := range f.Names {
				r.paramIdx[id.Name] = i
				if m.Types != nil && m.Types.Info != nil {
					if obj := m.Types.Info.Defs[id]; obj != nil {
						r.paramObj[obj] = i
					}
				}
				i++
			}
		}
	}
	forEachBinding(fn.Decl.Body, func(id *ast.Ident, rhs ast.Expr) {
		if owner, ok := componentCtor(rhs); ok {
			r.localOwner[id.Name] = owner
		}
	})
	return r
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ref resolves e to a lock identity, typed first, syntactic second.
func (r *refResolver) ref(e ast.Expr) LockRef {
	if e == nil {
		return LockRef{}
	}
	e = unparen(e)
	out := LockRef{
		Key:   r.key(e),
		Disp:  exprText(r.m.Pkg.Fset, e),
		Class: r.m.mechClassOf(e, r.fn),
	}
	if rest, ok := strings.CutPrefix(out.Key, "field:"); ok {
		typ, field, _ := strings.Cut(rest, ".")
		if si := r.m.Structs[typ]; si != nil && si.Fields[field] != nil && si.Fields[field].Owner != "" {
			out.Owner = "field:" + typ + "." + si.Fields[field].Owner
		}
	} else if id, ok := e.(*ast.Ident); ok && r.localOwner[id.Name] != nil {
		out.Owner = r.key(unparen(r.localOwner[id.Name]))
	}
	return out
}

func (r *refResolver) key(e ast.Expr) string {
	if key := r.typedKey(e); key != "" {
		return key
	}
	return r.syntacticKey(e)
}

func (r *refResolver) typedKey(e ast.Expr) string {
	ti := r.m.Types
	if ti == nil || ti.Info == nil {
		return ""
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel := ti.Info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			if n := namedOf(sel.Recv()); n != nil {
				return "field:" + n.Obj().Name() + "." + sel.Obj().Name()
			}
		}
		// Qualified package-level variable (pkg.Var).
		if obj, ok := ti.Info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil &&
			obj.Parent() == obj.Pkg().Scope() {
			return "global:" + obj.Name()
		}
	case *ast.Ident:
		obj, ok := ti.Info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if i, isParam := r.paramObj[obj]; isParam {
			return "param:" + strconv.Itoa(i)
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return "global:" + obj.Name()
		}
		return "local:" + r.fn.Name + "." + obj.Name()
	}
	return ""
}

func (r *refResolver) syntacticKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if base, ok := x.X.(*ast.Ident); ok {
			if si := r.m.structOfIdent(base, r.fn); si != nil {
				if si.Fields[x.Sel.Name] != nil {
					return "field:" + si.Name + "." + x.Sel.Name
				}
			}
		}
	case *ast.Ident:
		if i, ok := r.paramIdx[x.Name]; ok {
			return "param:" + strconv.Itoa(i)
		}
		return "local:" + r.fn.Name + "." + x.Name
	}
	return "expr:" + exprText(r.m.Pkg.Fset, e)
}

// summaryEvent is one direct operation or call site found in a body.
type summaryEvent struct {
	kind int     // evAcquire, evRelease, evPark, evCall
	op   OpClass // the operation (not evCall)
	ref  LockRef // the operation's object (not evCall)
	pos  token.Pos
	// evCall: the callee's frame key, the callee as the call names it (a
	// function or method key, or a local), and the lock refs of the
	// arguments. A local callee is a closure of the same declaration:
	// its refs are the caller's already and take no substitution.
	callee, name string
	local        bool
	argRefs      []LockRef
}

const (
	evAcquire = iota
	evRelease
	evPark
	evCall
)

// acquireLike classifies ops that take possession of a synchronization
// object until an explicit release: exclusion brackets and the P half of
// a split semaphore.
func acquireLike(c OpClass) bool {
	switch c {
	case OpAcquire, OpSemP:
		return true
	}
	return false
}

// bracketedBody classifies ops that acquire, run a closure argument, and
// release on their own: Do, CCR Execute, path Exec.
func bracketedBody(c OpClass) bool {
	switch c {
	case OpDo, OpExecute, OpExec:
		return true
	}
	return false
}

// releaseLike classifies explicit releases: Exit/Unlock and the V half
// of a split semaphore.
func releaseLike(c OpClass) bool {
	switch c {
	case OpRelease, OpSemV:
		return true
	}
	return false
}

// parkLike classifies blocking waits that do not take possession.
func parkLike(c OpClass) bool {
	switch c {
	case OpWait, OpEnqueue, OpJoin, OpAwait, OpChanOp:
		return true
	}
	return false
}

func defaultClass(c OpClass) string {
	switch c {
	case OpSemP:
		return "semaphore"
	case OpExecute, OpAwait:
		return "region"
	case OpExec:
		return "path"
	case OpWait:
		return "condition"
	case OpEnqueue:
		return "queue"
	case OpJoin:
		return "crowd"
	case OpChanOp:
		return "channel"
	}
	return "lock"
}

// heldFrame is one body replayed from an empty held stack.
type heldFrame struct {
	key    string
	fn     *FuncInfo // the enclosing declaration
	events []summaryEvent
}

// forEachBinding calls visit for every `name = expr`, `name := expr` and
// `var name = expr` in body, nested closures included.
func forEachBinding(body *ast.BlockStmt, visit func(id *ast.Ident, rhs ast.Expr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						visit(id, x.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, id := range x.Names {
					visit(id, x.Values[i])
				}
			}
		}
		return true
	})
}

// collectFrames walks one declaration into its frames: the declaration
// first, then each closure frame in the order it is met.
func collectFrames(m *Model, fn *FuncInfo) []*heldFrame {
	r := newRefResolver(m, fn)
	bound := map[*ast.FuncLit]string{} // closure → the local it is bound to
	locals := map[string]bool{}
	forEachBinding(fn.Decl.Body, func(id *ast.Ident, rhs ast.Expr) {
		if lit, ok := rhs.(*ast.FuncLit); ok {
			bound[lit], locals[id.Name] = id.Name, true
		}
	})
	frames := []*heldFrame{{key: fn.Name, fn: fn}}
	byLocal := map[string]*heldFrame{}
	var walk func(f *heldFrame, n ast.Node)
	walk = func(f *heldFrame, n ast.Node) {
		switch x := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// Not run inline: a frame of its own, one per local for the
			// closures bound to it.
			local, isBound := bound[x]
			g := byLocal[local]
			if g == nil {
				g = &heldFrame{key: fmt.Sprintf("%s#%d", fn.Name, len(frames)), fn: fn}
				if isBound {
					g.key = fn.Name + "." + local
					byLocal[local] = g
				}
				frames = append(frames, g)
			}
			walk(g, x.Body)
			return
		case *ast.CallExpr:
			op := classifyCall(x)
			if !m.isMechOp(op) {
				op = Op{Class: OpNone, Call: x}
			}
			emit := func(kind int, pos token.Pos) {
				ref := r.ref(op.Recv)
				if ref.Class == "" {
					ref.Class = defaultClass(op.Class)
				}
				if ref.valid() {
					f.events = append(f.events, summaryEvent{kind: kind, op: op.Class, ref: ref, pos: pos})
				}
			}
			switch {
			case acquireLike(op.Class), bracketedBody(op.Class):
				emit(evAcquire, x.Pos())
			case releaseLike(op.Class):
				emit(evRelease, x.Pos())
			case parkLike(op.Class):
				emit(evPark, x.Pos())
			case op.Class == OpNone:
				if id, ok := x.Fun.(*ast.Ident); ok && locals[id.Name] {
					f.events = append(f.events, summaryEvent{kind: evCall, callee: fn.Name + "." + id.Name, name: id.Name, local: true, pos: x.Pos()})
				} else if key := m.resolveCall(fn, r.localTypes, x); key != "" {
					ev := summaryEvent{kind: evCall, callee: key, name: key, pos: x.Pos()}
					for _, a := range x.Args {
						ev.argRefs = append(ev.argRefs, r.ref(a))
					}
					f.events = append(f.events, ev)
				}
			}
			walk(f, x.Fun)
			// A guard or body the mechanism runs under its own protection
			// runs here; any other closure argument is a frame of its own.
			protected, _ := closureArgs(op)
			for _, a := range x.Args {
				if lit, ok := a.(*ast.FuncLit); ok && slices.Contains(protected, lit) {
					walk(f, lit.Body)
				} else {
					walk(f, a)
				}
			}
			if bracketedBody(op.Class) {
				emit(evRelease, x.End())
			}
			return
		}
		for _, c := range childNodes(n) {
			walk(f, c)
		}
	}
	walk(frames[0], fn.Decl.Body)
	return frames
}

// buildSummaries walks every declaration into its frames and folds each
// frame's replay into its summary, to a fixed point: callee summaries
// are substituted as they stand until no summary grows. Bounded by the
// total number of distinct (frame, lock) pairs.
func buildSummaries(m *Model) {
	var keys []string
	for key, fn := range m.Funcs {
		if fn.Decl.Body != nil {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	m.Summaries = map[string]*FuncSummary{}
	for _, key := range keys {
		for _, f := range collectFrames(m, m.Funcs[key]) {
			m.frames = append(m.frames, f)
			m.Summaries[f.key] = &FuncSummary{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range m.frames {
			s, old := m.summarize(f), m.Summaries[f.key]
			if len(s.Acquires) != len(old.Acquires) || len(s.Parks) != len(old.Parks) ||
				len(s.NetHeld) != len(old.NetHeld) || len(s.NetReleased) != len(old.NetReleased) {
				changed = true
			}
			m.Summaries[f.key] = s
		}
	}
}

// summarize folds one frame's replay into a summary.
func (m *Model) summarize(f *heldFrame) *FuncSummary {
	s := &FuncSummary{}
	held, unmatched := m.replay(f, func(_ *summaryEvent, sites, stack []AcqSite) {
		for _, site := range sites {
			switch {
			case !parkLike(site.Op):
				s.add(&s.Acquires, site)
			case !holds(stack, site.Ref.Owner):
				s.add(&s.Parks, site)
			}
		}
	})
	for _, h := range held {
		s.add(&s.NetHeld, h)
	}
	for _, u := range unmatched {
		s.add(&s.NetReleased, u)
	}
	return s
}

// replay walks one frame's events with the stack of what is held: the
// frame's own acquisitions and, at each call, the callee's summary
// substituted into the frame — what it may acquire or park on, what it
// releases and what it leaves held. visit sees every acquisition, park
// and call with the stack as it stands before it; a call's sites are the
// callee's, substituted, positioned at the call, and with the call
// prepended to their path. The stack left at the end and the releases
// that matched nothing are the frame's net effect on its caller.
func (m *Model) replay(f *heldFrame, visit func(ev *summaryEvent, sites, held []AcqSite)) (held, unmatched []AcqSite) {
	pop := func(site AcqSite) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].Ref.Key == site.Ref.Key {
				held = slices.Delete(held, i, i+1)
				return
			}
		}
		unmatched = append(unmatched, site)
	}
	for i := range f.events {
		ev := &f.events[i]
		site := AcqSite{Ref: ev.ref, Op: ev.op, Pos: ev.pos}
		switch ev.kind {
		case evAcquire:
			visit(ev, []AcqSite{site}, held)
			held = append(held, site)
		case evRelease:
			pop(site)
		case evPark:
			visit(ev, []AcqSite{site}, held)
		case evCall:
			callee := m.Summaries[ev.callee]
			if callee == nil {
				continue
			}
			step := fmt.Sprintf("%s (%s)", ev.name, shortPos(m.Pkg.Fset, ev.pos))
			var sites []AcqSite
			for _, a := range slices.Concat(callee.Acquires, callee.Parks) {
				if s, ok := substitute(a, ev, step); ok {
					sites = append(sites, s)
				}
			}
			visit(ev, sites, held)
			for _, a := range callee.NetReleased {
				if s, ok := substitute(a, ev, step); ok {
					pop(s)
				}
			}
			for _, a := range callee.NetHeld {
				if s, ok := substitute(a, ev, step); ok {
					held = append(held, s)
				}
			}
		}
	}
	return held, unmatched
}

// holds reports whether a lock with the given key is on the stack; no
// lock has the empty key.
func holds(held []AcqSite, key string) bool {
	return slices.ContainsFunc(held, func(h AcqSite) bool { return h.Ref.Key == key })
}

// add appends site unless a site with the same key is already recorded.
func (s *FuncSummary) add(dst *[]AcqSite, site AcqSite) {
	if !holds(*dst, site.Ref.Key) {
		*dst = append(*dst, site)
	}
}

// substitute maps one callee summary entry into the caller's frame at a
// call: parameter refs, and parameter owners, are replaced by the
// caller's argument refs, the site moves to the call, and the call step
// is prepended to the path. Entries whose parameter argument is missing
// are dropped. A local callee's refs are the caller's already.
func substitute(site AcqSite, call *summaryEvent, step string) (AcqSite, bool) {
	out := site
	out.Pos = call.pos
	out.Path = append([]string{step}, site.Path...)
	if call.local {
		return out, true
	}
	arg := func(i int) (LockRef, bool) {
		if i >= len(call.argRefs) || !call.argRefs[i].valid() {
			return LockRef{}, false
		}
		return call.argRefs[i], true
	}
	if i, ok := paramIndex(site.Ref.Key); ok {
		a, ok := arg(i)
		if !ok {
			return out, false
		}
		out.Ref = LockRef{Key: a.Key, Class: site.Ref.Class, Disp: a.Disp, Owner: a.Owner}
		if a.Class != "" {
			out.Ref.Class = a.Class
		}
	} else if i, ok := paramIndex(site.Ref.Owner); ok {
		a, _ := arg(i)
		out.Ref.Owner = a.Key
	}
	return out, true
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	file := p.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}
