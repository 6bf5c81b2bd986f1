package synclint

import (
	"go/ast"
	"strings"
)

// The model is the shared, name-and-arity-driven view of a package that
// every analyzer consumes: which calls are mechanism operations, which
// struct fields are resource state versus synchronization machinery,
// which condition/queue/crowd belongs to which monitor/serializer, and
// what each function may acquire, park on and leave held (the held-lock
// model of summary.go).

// OpClass classifies a call as a synchronization-mechanism operation.
type OpClass int

const (
	OpNone OpClass = iota
	// OpAcquire is an exclusion bracket open: monitor/serializer
	// Enter(p), semaphore.Mutex Lock(p).
	OpAcquire
	// OpRelease is the matching close: Exit(p), Unlock(p).
	OpRelease
	// OpSemP / OpSemV are counting-semaphore operations: P blocks and
	// takes a permit, V grants one (possibly from another process).
	OpSemP
	OpSemV
	// OpWait releases a held monitor and blocks: Wait(p), WaitRank(p, r).
	OpWait
	// OpEnqueue releases a held serializer and blocks on a guarantee:
	// Enqueue(p, g), EnqueueRank(p, r, g).
	OpEnqueue
	// OpSignal is a monitor signal: Signal(p), SignalAll(p).
	OpSignal
	// OpJoin is a serializer crowd join: Join(p, body) — possession is
	// released while body runs.
	OpJoin
	// OpDo is the bracketed-body convenience: Do(p, body) acquires, runs
	// body, releases.
	OpDo
	// OpExecute / OpAwait are CCR operations: Execute(p, guard, body),
	// Await(p, guard).
	OpExecute
	OpAwait
	// OpExec runs an operation under a path expression: Exec(p, name, body).
	OpExec
	// OpChanOp is a blocking CSP operation: Send(p, v), Recv(p),
	// DoCall(p, ch, v), Select(p, cases).
	OpChanOp
	// OpSpawn creates a process: Spawn(name, fn), SpawnDaemon(name, fn).
	OpSpawn
	// OpRun starts the kernel: Run().
	OpRun
	// OpTraceEnter / OpTraceExit are trace emissions: Enter(p, op, arg),
	// Exit(p, op, arg).
	OpTraceEnter
	OpTraceExit
)

// Op is one classified call.
type Op struct {
	Class OpClass
	// Recv is the receiver expression (nil for package-level csp.Select,
	// whose channel set is in the arguments).
	Recv ast.Expr
	Call *ast.CallExpr
}

func isIdent(e ast.Expr) bool {
	_, ok := e.(*ast.Ident)
	return ok
}

func isFuncArg(e ast.Expr) bool {
	switch e.(type) {
	case *ast.FuncLit, *ast.CallExpr:
		// A call in guard position is a guarantee factory (EmptyG(),
		// SizeG(), ...) returning a closure.
		return true
	}
	return false
}

// classifyCall recognizes mechanism operations by method name and arity —
// the substrate's vocabulary (see package doc).
func classifyCall(call *ast.CallExpr) Op {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Op{Class: OpNone, Call: call}
	}
	name, n := sel.Sel.Name, len(call.Args)
	op := Op{Class: OpNone, Recv: sel.X, Call: call}
	// Bracket ops take the running process as their single argument,
	// always an identifier here; this keeps os.Exit(1) and friends out.
	identArg := n == 1 && isIdent(call.Args[0])
	switch {
	case (name == "Enter" || name == "Lock") && identArg:
		op.Class = OpAcquire
	case (name == "Exit" || name == "Unlock") && identArg:
		op.Class = OpRelease
	case name == "Enter" && n == 3:
		op.Class = OpTraceEnter
	case name == "Exit" && n == 3:
		op.Class = OpTraceExit
	case name == "P" && n == 1:
		op.Class = OpSemP
	case name == "V" && n == 0:
		op.Class = OpSemV
	case name == "Wait" && n == 1, name == "WaitRank" && n == 2:
		op.Class = OpWait
	case name == "Enqueue" && n == 2 && isFuncArg(call.Args[1]),
		name == "EnqueueRank" && n == 3 && isFuncArg(call.Args[2]):
		op.Class = OpEnqueue
	case (name == "Signal" || name == "SignalAll") && n == 1:
		op.Class = OpSignal
	case name == "Join" && n == 2 && isFuncArg(call.Args[1]):
		op.Class = OpJoin
	case name == "Do" && n == 2 && isFuncArg(call.Args[1]):
		op.Class = OpDo
	case name == "Execute" && n == 3:
		op.Class = OpExecute
	case name == "Await" && n == 2 && isFuncArg(call.Args[1]):
		op.Class = OpAwait
	case name == "Exec" && n == 3:
		op.Class = OpExec
	case name == "Send" && n == 2, name == "Recv" && n == 1,
		name == "DoCall" && n == 3, name == "Select" && n == 2:
		op.Class = OpChanOp
	case (name == "Spawn" || name == "SpawnDaemon") && n == 2:
		op.Class = OpSpawn
	case name == "Run" && n == 0:
		op.Class = OpRun
	}
	return op
}

// closureArgs returns the FuncLit arguments of a mechanism operation that
// run under the mechanism's own protection (guards and bodies), and those
// that run with possession released (crowd bodies, spawned processes).
func closureArgs(op Op) (protected, released []*ast.FuncLit) {
	lit := func(i int) *ast.FuncLit {
		if i < len(op.Call.Args) {
			if l, ok := op.Call.Args[i].(*ast.FuncLit); ok {
				return l
			}
		}
		return nil
	}
	add := func(dst []*ast.FuncLit, l *ast.FuncLit) []*ast.FuncLit {
		if l != nil {
			return append(dst, l)
		}
		return dst
	}
	switch op.Class {
	case OpEnqueue:
		protected = add(protected, lit(len(op.Call.Args)-1))
	case OpDo:
		protected = add(protected, lit(1))
	case OpExecute:
		protected = add(protected, lit(1))
		protected = add(protected, lit(2))
	case OpAwait:
		protected = add(protected, lit(1))
	case OpExec:
		protected = add(protected, lit(2))
	case OpJoin:
		released = add(released, lit(1))
	case OpSpawn:
		released = add(released, lit(1))
	}
	return protected, released
}

// mechanismPackages are the synchronization substrate import paths; a
// field whose type comes from one of them is machinery, not resource
// state, and a package importing none of them is outside the discipline
// the escape analyzer checks.
var mechanismPackages = []string{
	"internal/monitor", "internal/serializer", "internal/semaphore",
	"internal/ccr", "internal/csp", "internal/pathexpr",
}

// FieldInfo describes one struct field.
type FieldInfo struct {
	Name string
	// State marks resource-state candidates: basic values, slices, maps,
	// arrays, and same-package struct values. Everything else — mechanism
	// types, channels, funcs, interfaces, cross-package pointers — is
	// machinery or configuration the escape analyzer ignores.
	State bool
	// Owner is, for condition/queue/crowd components, the name of the
	// sibling field holding the owning monitor/serializer.
	Owner string
	// TypeName is the rendered field type with pointers stripped.
	TypeName string
}

// StructInfo describes one package struct with embedded same-package
// structs flattened in.
type StructInfo struct {
	Name        string
	Fields      map[string]*FieldInfo
	ProcMethods int             // methods taking a *kernel.Proc
	Mutable     map[string]bool // state fields written in methods
}

// FuncInfo describes one declared function or method.
type FuncInfo struct {
	Name    string // "Name" or "Type.Name"
	Recv    string // receiver type name, "" for plain functions
	RecvVar string // receiver identifier
	Decl    *ast.FuncDecl
}

// Model is the per-package view shared by the analyzers.
type Model struct {
	Pkg     *Package
	Structs map[string]*StructInfo
	Funcs   map[string]*FuncInfo
	// Types is the lenient go/types view (typed.go); always non-nil, but
	// possibly partial — consumers fall back to name/arity resolution
	// wherever an object did not resolve.
	Types *TypeInfo
	// Summaries are the interprocedural acquire/park summaries
	// (summary.go), one per frame: keyed like Funcs for declared
	// functions.
	Summaries map[string]*FuncSummary
	// frames are the event streams the summaries are folded from, every
	// declaration's frames together, by declaration key.
	frames []*heldFrame
	// UsesMechanisms: the package imports at least one substrate package.
	UsesMechanisms bool
	// constructorResults maps function names to the struct they return
	// ("NewDisk" -> "Disk"), for receiver-type inference on locals.
	constructorResults map[string]string
}

func typeText(e ast.Expr) string {
	for {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base, ok := x.X.(*ast.Ident); ok {
			return base.Name + "." + x.Sel.Name
		}
	}
	return ""
}

func isProcType(e ast.Expr) bool {
	t := typeText(e)
	return t == "kernel.Proc" || t == "Proc"
}

func buildModel(pkg *Package) *Model {
	m := &Model{
		Pkg:                pkg,
		Structs:            map[string]*StructInfo{},
		Funcs:              map[string]*FuncInfo{},
		constructorResults: map[string]string{},
	}
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			for _, mp := range mechanismPackages {
				if strings.Contains(imp.Path.Value, mp) {
					m.UsesMechanisms = true
				}
			}
		}
	}
	m.Types = typecheck(pkg)
	m.collectStructs(pkg)
	m.collectFuncs(pkg)
	m.collectComponents(pkg)
	m.collectMutability()
	buildSummaries(m)
	return m
}

func (m *Model) collectStructs(pkg *Package) {
	raw := map[string]*ast.StructType{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					raw[ts.Name.Name] = st
				}
			}
		}
	}
	// Memoized so an embedding struct shares the embedded struct's
	// *FieldInfo values: component ownership learned from the embedded
	// type's constructor is then visible through the outer type too.
	cache := map[string]map[string]*FieldInfo{}
	var fieldsOf func(name string, seen map[string]bool) map[string]*FieldInfo
	fieldsOf = func(name string, seen map[string]bool) map[string]*FieldInfo {
		if c, ok := cache[name]; ok {
			return c
		}
		out := map[string]*FieldInfo{}
		st, ok := raw[name]
		if !ok || seen[name] {
			return out
		}
		seen[name] = true
		for _, f := range st.Fields.List {
			tname := typeText(f.Type)
			if len(f.Names) == 0 {
				// Embedded: flatten same-package structs so promoted
				// state fields are attributed to the outer type.
				if _, isLocal := raw[tname]; isLocal {
					for k, v := range fieldsOf(tname, seen) {
						out[k] = v
					}
				}
				continue
			}
			state := false
			switch t := f.Type.(type) {
			case *ast.Ident:
				// Basic type or same-package named type; a same-package
				// struct VALUE is state, a basic value is state.
				state = true
			case *ast.ArrayType, *ast.MapType:
				state = true
			case *ast.StructType:
				state = true
			case *ast.StarExpr:
				// Pointer to a same-package struct counts as state only
				// if that struct is itself plain data; keep it out — the
				// repo's solutions never share resource state through
				// local pointers.
				_ = t
			}
			for _, id := range f.Names {
				out[id.Name] = &FieldInfo{Name: id.Name, State: state, TypeName: tname}
			}
		}
		cache[name] = out
		return out
	}
	for name := range raw {
		m.Structs[name] = &StructInfo{
			Name:    name,
			Fields:  fieldsOf(name, map[string]bool{}),
			Mutable: map[string]bool{},
		}
	}
}

func (m *Model) collectFuncs(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			info := &FuncInfo{Name: fn.Name.Name, Decl: fn}
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				info.Recv = typeText(fn.Recv.List[0].Type)
				if len(fn.Recv.List[0].Names) == 1 {
					info.RecvVar = fn.Recv.List[0].Names[0].Name
				}
				info.Name = info.Recv + "." + fn.Name.Name
				if si := m.Structs[info.Recv]; si != nil && fn.Type.Params != nil {
					for _, p := range fn.Type.Params.List {
						if star, ok := p.Type.(*ast.StarExpr); ok && isProcType(star) {
							si.ProcMethods++
						}
					}
				}
			} else if fn.Type.Results != nil {
				for _, r := range fn.Type.Results.List {
					if si := m.Structs[typeText(r.Type)]; si != nil {
						m.constructorResults[fn.Name.Name] = si.Name
					}
				}
			}
			if m.Funcs[info.Name] != nil {
				// init and _ may be declared more than once: each is a
				// function of its own, keyed by where it is declared.
				info.Name += "@" + shortPos(pkg.Fset, fn.Pos())
			}
			m.Funcs[info.Name] = info
		}
	}
}

// componentCtor recognizes a component constructor call and returns its
// owner: m.NewCondition(...) → m.
func componentCtor(e ast.Expr) (owner ast.Expr, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	switch sel.Sel.Name {
	case "NewCondition", "NewQueue", "NewCrowd", "NewChan":
		return sel.X, true
	}
	return nil, false
}

// collectComponents learns which condition/queue/crowd field belongs to
// which monitor/serializer field by scanning constructor bindings:
//
//	m := monitor.New("bb")
//	return &BoundedBuffer{m: m, notFull: m.NewCondition("notfull")}
func (m *Model) collectComponents(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				si := m.Structs[typeText(x.Type)]
				if si == nil {
					return true
				}
				// First map fields bound to plain local idents, then
				// resolve component constructors against those locals.
				localField := map[string]string{}
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if v, ok := kv.Value.(*ast.Ident); ok {
						localField[v.Name] = key.Name
					}
				}
				for _, el := range x.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if owner, ok := componentCtor(kv.Value); ok {
						if ownerID, ok := owner.(*ast.Ident); ok {
							if fi := si.Fields[key.Name]; fi != nil {
								fi.Owner = localField[ownerID.Name]
							}
						}
					}
				}
			case *ast.AssignStmt:
				// d.turn = d.m.NewCondition(...) style: both sides are
				// fields of the same struct value.
				for i, lhs := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					call, ok := x.Rhs[i].(*ast.CallExpr)
					if !ok {
						continue
					}
					owner, isComponent := componentCtor(call)
					if !isComponent {
						continue
					}
					ownerSel, ok := owner.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					base, ownerBase := baseIdent(lhs), baseIdent(ownerSel)
					if base == nil || ownerBase == nil || base.Name != ownerBase.Name {
						continue
					}
					for _, si := range m.Structs {
						if fi := si.Fields[sel.Sel.Name]; fi != nil && si.Fields[ownerSel.Sel.Name] != nil {
							fi.Owner = ownerSel.Sel.Name
						}
					}
				}
			}
			return true
		})
	}
}

// collectMutability marks state fields written inside methods (writes in
// constructors are initialization, not shared mutation).
func (m *Model) collectMutability() {
	for _, fi := range m.Funcs {
		if fi.Recv == "" || fi.Decl.Body == nil {
			continue
		}
		si := m.Structs[fi.Recv]
		if si == nil {
			continue
		}
		recv := fi.RecvVar
		mark := func(e ast.Expr) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok || base.Name != recv {
				return
			}
			if f := si.Fields[sel.Sel.Name]; f != nil && f.State {
				si.Mutable[sel.Sel.Name] = true
			}
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(x.X)
			}
			return true
		})
	}
}

// localTypes infers struct types of local variables bound to constructor
// calls (x := NewDisk(...)).
func (m *Model) localTypes(fi *FuncInfo) map[string]string {
	out := map[string]string{}
	if fi.Decl.Body == nil {
		return out
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok {
					if s := m.constructorResults[fn.Name]; s != "" {
						out[id.Name] = s
					}
				}
			}
		}
		return true
	})
	return out
}

// resolveCall maps a call expression to a FuncInfo key, or "". Typed
// resolution goes first — it sees through aliasing and differently named
// receivers — with the PR 2 syntactic inference as the fallback.
func (m *Model) resolveCall(fi *FuncInfo, localTypes map[string]string, call *ast.CallExpr) string {
	if key := m.resolveCallTyped(call); key != "" {
		return key
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if m.Funcs[fun.Name] != nil {
			return fun.Name
		}
	case *ast.SelectorExpr:
		switch x := fun.X.(type) {
		case *ast.Ident:
			// r.M() on the receiver, or v.M() on a constructor-typed local.
			if fi.Recv != "" && x.Name == fi.RecvVar {
				return fi.Recv + "." + fun.Sel.Name
			}
			if t := localTypes[x.Name]; t != "" {
				return t + "." + fun.Sel.Name
			}
		case *ast.SelectorExpr:
			// r.f.M() on a same-package-typed field.
			if base, ok := x.X.(*ast.Ident); ok && fi.Recv != "" && base.Name == fi.RecvVar {
				if si := m.Structs[fi.Recv]; si != nil {
					if f := si.Fields[x.Sel.Name]; f != nil && m.Structs[f.TypeName] != nil {
						return f.TypeName + "." + fun.Sel.Name
					}
				}
			}
		}
	}
	return ""
}
