package synclint

// The typed layer resolves receivers and calls to go/types objects, so
// analyzers reason about *which* monitor or semaphore an operation
// touches instead of how its expression happens to be spelled. Two
// different renderings of the same field ("b.m" in one method, "buf.m"
// through a differently named receiver, or an alias local) collapse to
// one lock identity, and unrelated methods that merely share a name with
// the substrate vocabulary (an Enter on a game struct) stop classifying
// as mechanism operations.
//
// Type checking is deliberately lenient: the checker runs with a
// collecting error handler and a best-effort importer, so a package that
// does not fully type-check (fixture sources, embedded solution text
// analyzed outside the repo) still yields partial types.Info, and every
// consumer falls back to the name/arity model of PR 2 where type
// information is missing. Nothing in the package ever fails because
// typing failed — typing only sharpens.
//
// The importer is stdlib-only (go/importer's source importer for GOROOT
// packages) plus a hand-rolled module-local loader: import paths under
// this repository's module path are parsed from disk relative to the
// go.mod root and type-checked recursively with the same importer. Both
// are cached process-wide, so linting dozens of packages pays the
// stdlib-parsing cost once.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// TypeInfo is the (possibly partial) type-checking result for a package.
type TypeInfo struct {
	Info *types.Info
	Pkg  *types.Package
	// Errors are the soft type-checking diagnostics; a non-empty list
	// means resolution is partial and consumers fell back to the
	// name/arity model wherever objects did not resolve.
	Errors []error
}

// Complete reports whether the package type-checked without diagnostics.
func (t *TypeInfo) Complete() bool { return t != nil && len(t.Errors) == 0 }

// typecheck runs the lenient checker over an already-parsed package.
func typecheck(pkg *Package) *TypeInfo {
	ti := &TypeInfo{
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer:    sharedImporter(),
		FakeImportC: true,
		Error:       func(err error) { ti.Errors = append(ti.Errors, err) },
	}
	// Check returns a usable (if incomplete) package even on errors.
	ti.Pkg, _ = conf.Check(pkg.Name, pkg.Fset, pkg.Files, ti.Info)
	return ti
}

// repoImporter resolves stdlib imports through go/importer's source
// importer and module-local imports by parsing their directories from
// disk. Unresolvable paths yield an empty placeholder package so the
// check continues with soft errors instead of aborting.
type repoImporter struct {
	mu         sync.Mutex
	fset       *token.FileSet
	std        types.Importer
	cache      map[string]*types.Package
	inProgress map[string]bool
	moduleRoot string // "" when no go.mod was found
	modulePath string
}

var (
	importerOnce sync.Once
	importerInst *repoImporter
)

func sharedImporter() *repoImporter {
	importerOnce.Do(func() {
		fset := token.NewFileSet()
		imp := &repoImporter{
			fset:       fset,
			std:        importer.ForCompiler(fset, "source", nil),
			cache:      map[string]*types.Package{},
			inProgress: map[string]bool{},
		}
		imp.moduleRoot, imp.modulePath = findModule()
		importerInst = imp
	})
	return importerInst
}

// findModule walks up from the working directory to the enclosing go.mod
// and reads its module path. Analysis outside a module (a deployed
// binary, say) simply loses module-local typing and falls back.
func findModule() (root, path string) {
	dir, err := os.Getwd()
	if err != nil {
		return "", ""
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest)
				}
			}
			return "", ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", ""
		}
		dir = parent
	}
}

func (ri *repoImporter) Import(path string) (*types.Package, error) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return ri.importLocked(path)
}

func (ri *repoImporter) importLocked(path string) (*types.Package, error) {
	if p, ok := ri.cache[path]; ok {
		return p, nil
	}
	if ri.inProgress[path] {
		// Import cycles cannot occur in valid Go; break anyway.
		return ri.placeholder(path), nil
	}
	ri.inProgress[path] = true
	defer delete(ri.inProgress, path)

	var pkg *types.Package
	if ri.modulePath != "" && (path == ri.modulePath || strings.HasPrefix(path, ri.modulePath+"/")) {
		pkg = ri.importModuleLocal(path)
	} else {
		// Stdlib (and anything else resolvable from GOROOT source). The
		// source importer holds ri.mu across its own recursion — safe,
		// because it never calls back into ri.
		if p, err := ri.std.Import(path); err == nil {
			pkg = p
		}
	}
	if pkg == nil {
		pkg = ri.placeholder(path)
	}
	ri.cache[path] = pkg
	return pkg, nil
}

func (ri *repoImporter) placeholder(path string) *types.Package {
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	return p
}

// importModuleLocal parses and type-checks one module-local package from
// disk. Failures degrade to a placeholder; they never propagate.
func (ri *repoImporter) importModuleLocal(path string) *types.Package {
	dir := filepath.Join(ri.moduleRoot, filepath.FromSlash(strings.TrimPrefix(path, ri.modulePath)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !wantFile(e.Name()) {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		f, err := parser.ParseFile(ri.fset, filepath.Join(dir, e.Name()), src, 0)
		if err != nil {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	conf := types.Config{
		Importer:    importerFunc(func(p string) (*types.Package, error) { return ri.importLocked(p) }),
		FakeImportC: true,
		Error:       func(error) {}, // dependency diagnostics are not ours to report
	}
	pkg, _ := conf.Check(path, ri.fset, files, nil)
	if pkg == nil {
		return nil
	}
	return pkg
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// --- typed resolution helpers on the model ---

// typeOf returns the static type of e, or nil when typing is partial.
func (m *Model) typeOf(e ast.Expr) types.Type {
	if m.Types == nil || m.Types.Info == nil {
		return nil
	}
	if tv, ok := m.Types.Info.Types[e]; ok && tv.Type != nil {
		if b, ok := tv.Type.(*types.Basic); !ok || b.Kind() != types.Invalid {
			return tv.Type
		}
	}
	return nil
}

// namedOf strips pointers and returns the underlying named type, if any.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

// mechClasses maps a substrate type (package base name + type name) to
// its mechanism class. The same table serves the untyped fallback, which
// matches the rendered field type text ("monitor.Monitor").
var mechClasses = map[string]string{
	"monitor.Monitor":       "monitor",
	"monitor.Condition":     "condition",
	"serializer.Serializer": "serializer",
	"serializer.Queue":      "queue",
	"serializer.Crowd":      "crowd",
	"semaphore.Mutex":       "mutex",
	"semaphore.Semaphore":   "semaphore",
	"ccr.Region":            "region",
	"csp.Chan":              "channel",
	"csp.Net":               "channel",
	"pathexpr.Set":          "path",
}

// mechClassOf classifies the receiver of a mechanism operation, typed
// first and by rendered type text second. "" means unknown.
func (m *Model) mechClassOf(e ast.Expr, fn *FuncInfo) string {
	if t := m.typeOf(e); t != nil {
		if n := namedOf(t); n != nil && n.Obj().Pkg() != nil {
			pkgPath := n.Obj().Pkg().Path()
			base := pkgPath
			if i := strings.LastIndex(base, "/"); i >= 0 {
				base = base[i+1:]
			}
			if c, ok := mechClasses[base+"."+n.Obj().Name()]; ok {
				return c
			}
			return "" // typed, but not a substrate type
		}
	}
	// Untyped fallback: field type text through the struct model.
	if sel, ok := e.(*ast.SelectorExpr); ok && fn != nil {
		if base, ok := sel.X.(*ast.Ident); ok {
			if si := m.structOfIdent(base, fn); si != nil {
				if f := si.Fields[sel.Sel.Name]; f != nil {
					if c, ok := mechClasses[f.TypeName]; ok {
						return c
					}
				}
			}
		}
	}
	return ""
}

// structOfIdent resolves an identifier to the StructInfo of its inferred
// type: the method receiver, or a constructor-typed local.
func (m *Model) structOfIdent(id *ast.Ident, fn *FuncInfo) *StructInfo {
	if fn == nil {
		return nil
	}
	if fn.Recv != "" && id.Name == fn.RecvVar {
		return m.Structs[fn.Recv]
	}
	if t := m.localTypes(fn)[id.Name]; t != "" {
		return m.Structs[t]
	}
	return nil
}

// resolveCallTyped maps a call to a same-package FuncInfo key using type
// information: plain functions through Uses, methods through Selections.
// Returns "" when objects did not resolve (partial typing).
func (m *Model) resolveCallTyped(call *ast.CallExpr) string {
	if m.Types == nil || m.Types.Info == nil {
		return ""
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := m.Types.Info.Uses[fun].(*types.Func); ok && obj.Pkg() == m.Types.Pkg {
			if m.Funcs[obj.Name()] != nil {
				return obj.Name()
			}
		}
	case *ast.SelectorExpr:
		if sel := m.Types.Info.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			f, ok := sel.Obj().(*types.Func)
			if !ok || f.Pkg() != m.Types.Pkg {
				return ""
			}
			if n := namedOf(sel.Recv()); n != nil {
				key := n.Obj().Name() + "." + f.Name()
				if m.Funcs[key] != nil {
					return key
				}
			}
		}
	}
	return ""
}

// isMechOp validates a name/arity classification against the type of the
// receiver: when the receiver's type is known and is NOT a substrate
// type, the call is not a mechanism operation no matter what it is
// called. Unknown types keep the name/arity verdict (fallback), and so
// does an interface: a P/V contract the substrate types satisfy
// (semscale.Sem) is a semaphore whatever implements it.
func (m *Model) isMechOp(op Op) bool {
	switch op.Class {
	case OpNone, OpSpawn, OpRun, OpTraceEnter, OpTraceExit:
		return true
	}
	if op.Recv == nil {
		return true
	}
	t := m.typeOf(op.Recv)
	if t == nil || types.IsInterface(t) {
		return true // untyped or an interface: trust name/arity
	}
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	base := n.Obj().Pkg().Path()
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	_, ok := mechClasses[base+"."+n.Obj().Name()]
	return ok
}
