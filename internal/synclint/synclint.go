// Package synclint statically checks the synchronization discipline this
// repository's solutions follow. The paper's modularity and ease-of-use
// criteria (§2, §5.2) are judgements about the shape of code — whether
// synchronization is encapsulated with the resource, whether a wait is
// reachable while an outer mechanism is held (the nested-monitor-call
// problem [18]) — so they can be derived mechanically from the AST, in
// the spirit of turning design rules into compiler passes.
//
// The framework is stdlib-only (go/ast, go/parser, go/types) and
// convention-driven: mechanism operations are recognized by method name
// and arity (Enter/Exit with one argument is a monitor or serializer
// bracket, P/V a semaphore, three-argument Enter/Exit a trace emission,
// and so on), which is exactly the vocabulary the kernel substrate
// defines. A lenient type check sharpens that where types resolve
// (typed.go) and never fails an analysis, so the same analyzers run over
// on-disk packages and over the embedded solutions.Sources file system.
// What a function holds and where it may block is decided once, by the
// held-lock model of summary.go.
//
// Deliberate violations are suppressed with an allow-annotation:
//
//	//synclint:allow <analyzer>[,<analyzer>]: <reason>
//
// placed on the offending line, on the line above it, or in the doc
// comment of the enclosing function (covering the whole function). The
// analyzer list may be the word "all". A file-wide suppression uses
// //synclint:allow-file with the same syntax. The reason is mandatory:
// an allow without one still suppresses its target but is itself
// reported as an `allow` finding, so unexplained suppressions cannot
// accumulate silently.
package synclint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one discipline violation, keyed by source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Package is one parsed Go package (test files excluded).
type Package struct {
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
}

// LoadDir parses the non-test Go files of an on-disk directory.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && wantFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return load(dir, names, func(name string) ([]byte, error) {
		return os.ReadFile(filepath.Join(dir, name))
	})
}

// LoadFS parses the non-test Go files of a directory inside an fs.FS —
// typically the solutions.Sources embed.
func LoadFS(fsys fs.FS, dir string) (*Package, error) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && wantFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return load(dir, names, func(name string) ([]byte, error) {
		return fs.ReadFile(fsys, path_join(dir, name))
	})
}

// LoadSource parses in-memory sources; used by the fixture tests.
func LoadSource(dir string, files map[string]string) (*Package, error) {
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return load(dir, names, func(name string) ([]byte, error) {
		return []byte(files[name]), nil
	})
}

func wantFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func path_join(dir, name string) string {
	if dir == "" || dir == "." {
		return name
	}
	return dir + "/" + name
}

func load(dir string, names []string, read func(string) ([]byte, error)) (*Package, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("synclint: no Go files in %s", dir)
	}
	sort.Strings(names)
	pkg := &Package{Dir: dir, Fset: token.NewFileSet()}
	for _, name := range names {
		src, err := read(name)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(pkg.Fset, path_join(dir, name), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
		if pkg.Name == "" {
			pkg.Name = file.Name.Name
		}
	}
	return pkg, nil
}

// Analyzer is one discipline check.
type Analyzer struct {
	Name string
	Doc  string
	run  func(*Pass)
}

// Analyzers returns the full catalogue in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		BracketAnalyzer,
		HoldWaitAnalyzer,
		EscapeAnalyzer,
		SignalStateAnalyzer,
		KernelAPIAnalyzer,
		LockOrderAnalyzer,
		LostWakeupAnalyzer,
	}
}

// AnalyzerNames returns the catalogue's names.
func AnalyzerNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// Pass is one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
	Model    *Model
	analyzer *Analyzer
	findings []Finding
}

func (p *Pass) reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to the package, drops findings covered by
// allow-annotations, and returns the remainder sorted by position —
// plus one `allow` finding per annotation that lacks a reason. The
// second result counts the suppressed findings.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, int) {
	model := buildModel(pkg)
	allow := collectAllows(pkg)
	var out []Finding
	suppressed := 0
	for _, a := range analyzers {
		for _, f := range runOnePass(pkg, model, a) {
			if allow.allows(a.Name, f.Pos) {
				suppressed++
				continue
			}
			out = append(out, f)
		}
	}
	// Bare allows are findings in their own right, and deliberately not
	// subject to suppression — a reason-less allow cannot excuse itself.
	out = append(out, allow.bare...)
	SortFindings(out)
	return out, suppressed
}

// RunAll applies the analyzers with allow-annotations ignored, returning
// every raw finding. The xcheck gate uses it to seed hunts from fixture
// sources whose findings are deliberately annotated so the repo's own
// lint stays clean.
func RunAll(pkg *Package, analyzers []*Analyzer) []Finding {
	model := buildModel(pkg)
	var out []Finding
	for _, a := range analyzers {
		out = append(out, runOnePass(pkg, model, a)...)
	}
	SortFindings(out)
	return out
}

func runOnePass(pkg *Package, model *Model, a *Analyzer) []Finding {
	pass := &Pass{Pkg: pkg, Model: model, analyzer: a}
	a.run(pass)
	return pass.findings
}

// SortFindings orders findings by file, line, column, analyzer — the
// deterministic order every front end (CLI JSON, eval tables, goldens)
// presents.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// exprText renders an expression as compact source text; analyzers use it
// to key mechanism objects ("d.mutex", "m") without type information.
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("<expr@%d>", e.Pos())
	}
	return buf.String()
}

// baseIdent returns the leftmost identifier of a selector chain, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// allowIndex records every //synclint:allow annotation in a package.
type allowIndex struct {
	// lines maps file -> line -> analyzer set ("all" covers everything).
	lines map[string]map[int]map[string]bool
	// ranges are function-granularity and file-granularity suppressions.
	ranges []allowRange
	// bare are findings for annotations that carried no reason.
	bare []Finding
}

type allowRange struct {
	file       string
	start, end int
	names      map[string]bool
}

// parseAllow splits an annotation into its analyzer names and reason:
//
//	//synclint:allow <names>: <reason>
//
// An empty name list means "all"; an empty reason is the caller's cue to
// report the annotation itself.
func parseAllow(text, marker string) (names map[string]bool, reason string, ok bool) {
	// Directive comments only: the marker must open the comment
	// (`//synclint:allow ...`), so prose that merely mentions the
	// annotation never parses as one.
	rest, ok := strings.CutPrefix(text, "//"+marker)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != ':') {
		return nil, "", false
	}
	rest, reason, _ = strings.Cut(rest, ":")
	names = map[string]bool{}
	for _, f := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		names[f] = true
	}
	if len(names) == 0 {
		names["all"] = true
	}
	return names, strings.TrimSpace(reason), true
}

// noteAllow validates one annotation's reason, recording a finding for
// bare allows.
func (idx *allowIndex) noteAllow(pkg *Package, c *ast.Comment, names map[string]bool, reason string) {
	if reason != "" {
		return
	}
	var list []string
	for n := range names {
		list = append(list, n)
	}
	sort.Strings(list)
	idx.bare = append(idx.bare, Finding{
		Analyzer: "allow",
		Pos:      pkg.Fset.Position(c.Pos()),
		Message: fmt.Sprintf("suppression of %s lacks a reason — write //synclint:allow <analyzer>: <reason>",
			strings.Join(list, ",")),
	})
}

func collectAllows(pkg *Package) *allowIndex {
	idx := &allowIndex{lines: map[string]map[int]map[string]bool{}}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if names, reason, ok := parseAllow(c.Text, "synclint:allow-file"); ok {
					pos := pkg.Fset.Position(c.Pos())
					idx.ranges = append(idx.ranges, allowRange{file: pos.Filename, start: 0, end: 1 << 30, names: names})
					idx.noteAllow(pkg, c, names, reason)
					continue
				}
				names, reason, ok := parseAllow(c.Text, "synclint:allow")
				if !ok {
					continue
				}
				idx.noteAllow(pkg, c, names, reason)
				pos := pkg.Fset.Position(c.Pos())
				byLine := idx.lines[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					idx.lines[pos.Filename] = byLine
				}
				// The annotation covers its own line and the next one, so
				// it works both trailing a statement and on its own line.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					for n := range names {
						byLine[line][n] = true
					}
				}
			}
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				// The reason was already validated in the comment sweep
				// above; this loop only widens coverage to the function.
				if names, _, ok := parseAllow(c.Text, "synclint:allow"); ok {
					start := pkg.Fset.Position(fn.Pos())
					end := pkg.Fset.Position(fn.End())
					idx.ranges = append(idx.ranges, allowRange{file: start.Filename, start: start.Line, end: end.Line, names: names})
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) allows(analyzer string, pos token.Position) bool {
	if byLine := idx.lines[pos.Filename]; byLine != nil {
		if names := byLine[pos.Line]; names != nil && (names["all"] || names[analyzer]) {
			return true
		}
	}
	for _, r := range idx.ranges {
		if r.file == pos.Filename && pos.Line >= r.start && pos.Line <= r.end && (r.names["all"] || r.names[analyzer]) {
			return true
		}
	}
	return false
}
