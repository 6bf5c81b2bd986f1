// Package eval implements the paper's evaluation methodology: the
// expressive-power matrix over the six information types (§4.1), the
// constraint-independence analysis over problem variants (§4.2), the
// modularity criteria (§2), and executable reproductions of the paper's
// Figure 1/Figure 2 analysis including the footnote-3 anomaly.
package eval

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/scanner"
	"go/token"
	"sort"
	"strings"

	"repro/internal/problems"
	"repro/internal/solutions"
)

// The constraint-independence criterion (§4.2): two problems that share a
// constraint should have solutions whose implementation of that
// constraint is identical; modifying the other constraint should leave it
// untouched. We mechanize the comparison Bloom performs by eye: pull each
// variant solution's declarations out of the (embedded) package source,
// canonicalize, and measure token-level similarity between corresponding
// methods. High similarity between readers-priority and writers-priority
// solutions means the changed priority constraint was localized; low
// similarity means the change rewrote the shared exclusion constraint too
// — the paper's verdict on path expressions.

// SolutionDecls is the extracted source of one solution: its type
// declaration, constructor, and methods, canonically printed.
type SolutionDecls struct {
	Mechanism string
	Problem   string
	TypeName  string
	// Decls maps a stable key ("type", "new", method names) to the
	// canonicalized source text of that declaration.
	Decls map[string]string
}

// TotalTokens reports the token count across all declarations — the
// solution-size metric used in reports.
func (s *SolutionDecls) TotalTokens() int {
	n := 0
	for _, src := range s.Decls {
		n += len(tokenize(src))
	}
	return n
}

// LoadSolution extracts the declarations implementing problem in the
// given mechanism's package from the embedded sources.
func LoadSolution(mechanism, problem string) (*SolutionDecls, error) {
	typeName, ok := solutions.SolutionTypes[problem]
	if !ok {
		return nil, fmt.Errorf("eval: unknown problem %q", problem)
	}
	s, err := LoadNamedSolution(mechanism, typeName)
	if err != nil {
		return nil, err
	}
	s.Problem = problem
	return s, nil
}

// LoadNamedSolution extracts the declarations of an arbitrary solution
// type in the mechanism's package (used by E1 for the extended-dialect
// solutions, which have no problem-registry entry).
func LoadNamedSolution(mechanism, typeName string) (*SolutionDecls, error) {
	dir, ok := solutions.SourceDirs[mechanism]
	if !ok {
		return nil, fmt.Errorf("eval: unknown mechanism %q", mechanism)
	}
	fset := token.NewFileSet()
	entries, err := solutions.Sources.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eval: reading %s: %w", dir, err)
	}
	out := &SolutionDecls{
		Mechanism: mechanism,
		TypeName:  typeName,
		Decls:     map[string]string{},
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := solutions.Sources.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(fset, e.Name(), src, 0)
		if err != nil {
			return nil, fmt.Errorf("eval: parsing %s: %w", e.Name(), err)
		}
		collectDecls(fset, file, typeName, out.Decls)
	}
	if len(out.Decls) == 0 {
		return nil, fmt.Errorf("eval: no declarations for %s in %s", typeName, dir)
	}
	return out, nil
}

// collectDecls walks a file for the type named typeName, its constructor
// New<typeName>, and its methods.
func collectDecls(fset *token.FileSet, file *ast.File, typeName string, into map[string]string) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typeName {
					continue
				}
				into["type"] = printDecl(fset, d)
			}
		case *ast.FuncDecl:
			if d.Recv == nil {
				if d.Name.Name == "New"+typeName {
					into["new"] = printDecl(fset, d)
				}
				continue
			}
			if recvTypeName(d.Recv) == typeName {
				into[d.Name.Name] = printDecl(fset, d)
			}
		}
	}
}

func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func printDecl(fset *token.FileSet, d ast.Decl) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, d); err != nil {
		return ""
	}
	return buf.String()
}

// tokenize splits canonicalized Go source into semantic tokens, dropping
// comments.
func tokenize(src string) []string {
	var s scanner.Scanner
	fset := token.NewFileSet()
	f := fset.AddFile("frag.go", fset.Base(), len(src))
	s.Init(f, []byte(src), nil, 0)
	var out []string
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.COMMENT || tok == token.SEMICOLON {
			continue
		}
		if lit != "" {
			out = append(out, lit)
		} else {
			out = append(out, tok.String())
		}
	}
	return out
}

// normalize replaces occurrences of the solutions' own type names with a
// placeholder so that the diff measures structure, not the unavoidable
// rename between ReadersPriority and WritersPriority.
func normalize(tokens []string, typeNames ...string) []string {
	names := map[string]bool{}
	for _, t := range typeNames {
		names[t] = true
		names["New"+t] = true
	}
	out := make([]string, len(tokens))
	for i, t := range tokens {
		if names[t] {
			out[i] = "θ"
		} else {
			out[i] = t
		}
	}
	return out
}

// lcsLen computes the longest-common-subsequence length of two token
// slices (O(len(a)*len(b)), fine at solution scale).
func lcsLen(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Similarity is the token-level resemblance of two declarations:
// 2·LCS/(|a|+|b|), 1.0 for identical text, 0.0 for nothing in common.
func Similarity(aSrc, bSrc string, typeNames ...string) float64 {
	a := normalize(tokenize(aSrc), typeNames...)
	b := normalize(tokenize(bSrc), typeNames...)
	if len(a)+len(b) == 0 {
		return 1
	}
	return 2 * float64(lcsLen(a, b)) / float64(len(a)+len(b))
}

// DeclDiff is the similarity of one corresponding declaration pair.
type DeclDiff struct {
	Name       string
	Similarity float64 // -1 when the declaration exists on one side only
}

// PairReport is the independence comparison of one mechanism's solutions
// to two problems.
type PairReport struct {
	Mechanism string
	ProblemA  string
	ProblemB  string
	Diffs     []DeclDiff
	// Overall is the token-weighted similarity across all corresponding
	// declarations (one-sided declarations count as similarity 0 with
	// their own weight).
	Overall float64
}

// ComparePair loads both solutions and measures their similarity.
func ComparePair(mechanism, problemA, problemB string) (PairReport, error) {
	a, err := LoadSolution(mechanism, problemA)
	if err != nil {
		return PairReport{}, err
	}
	b, err := LoadSolution(mechanism, problemB)
	if err != nil {
		return PairReport{}, err
	}
	rep := PairReport{Mechanism: mechanism, ProblemA: problemA, ProblemB: problemB}

	keys := map[string]bool{}
	for k := range a.Decls {
		keys[k] = true
	}
	for k := range b.Decls {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	totalWeight := 0
	weightedSim := 0.0
	for _, k := range sorted {
		sa, oka := a.Decls[k]
		sb, okb := b.Decls[k]
		switch {
		case oka && okb:
			sim := Similarity(sa, sb, a.TypeName, b.TypeName)
			w := len(tokenize(sa)) + len(tokenize(sb))
			totalWeight += w
			weightedSim += sim * float64(w)
			rep.Diffs = append(rep.Diffs, DeclDiff{Name: k, Similarity: sim})
		case oka:
			w := len(tokenize(sa))
			totalWeight += w
			rep.Diffs = append(rep.Diffs, DeclDiff{Name: k, Similarity: -1})
		default:
			w := len(tokenize(sb))
			totalWeight += w
			rep.Diffs = append(rep.Diffs, DeclDiff{Name: k, Similarity: -1})
		}
	}
	if totalWeight > 0 {
		rep.Overall = weightedSim / float64(totalWeight)
	}
	return rep, nil
}

// IndependenceRow is one mechanism's line in the T2 table.
type IndependenceRow struct {
	Mechanism string
	// RPvsWP is the similarity of the readers-priority and
	// writers-priority solutions (same information types, different
	// priority constraint).
	RPvsWP float64
	// RPvsFCFS is the similarity against the FCFS variant (the priority
	// constraint changes information type).
	RPvsFCFS float64
}

// IndependenceTable computes the T2 table across all mechanisms.
func IndependenceTable() ([]IndependenceRow, error) {
	var out []IndependenceRow
	for _, s := range solutions.All() {
		rpwp, err := ComparePair(s.Mechanism, problems.NameReadersPriority, problems.NameWritersPriority)
		if err != nil {
			return nil, err
		}
		rpff, err := ComparePair(s.Mechanism, problems.NameReadersPriority, problems.NameFCFSRW)
		if err != nil {
			return nil, err
		}
		out = append(out, IndependenceRow{
			Mechanism: s.Mechanism,
			RPvsWP:    rpwp.Overall,
			RPvsFCFS:  rpff.Overall,
		})
	}
	return out, nil
}
