package pathexpr_test

import (
	"testing"

	"repro/internal/pathexpr"
	"repro/internal/solutions/pathexprsol"
)

// FuzzParseList is the path-expression input boundary: ParseList must
// return paths or an error on any input, never crash; every accepted path
// must render to source that parses back to the same rendering; and
// CompileList must return a set or an error for whatever ParseList
// accepts. Seeded with the paper's two figures and the missing-colon
// bounds that once overflowed the stack.
func FuzzParseList(f *testing.F) {
	for _, src := range []string{
		pathexprsol.Figure1Paths,
		pathexprsol.Figure2Paths,
		"path 3 (a ; b) end",
		"path 3 { a end",
		"path 2 : (deposit ; remove) end",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		paths, err := pathexpr.ParseList(src)
		if err != nil {
			return
		}
		for _, p := range paths {
			r, err := pathexpr.Parse(p.String())
			if err != nil {
				t.Fatalf("rendering %q of an accepted path does not parse: %v", p.String(), err)
			}
			if r.String() != p.String() {
				t.Fatalf("round trip changed the rendering: %q -> %q", p.String(), r.String())
			}
		}
		if set, err := pathexpr.CompileList(paths); err == nil && set == nil {
			t.Fatalf("CompileList returned neither a set nor an error for %q", src)
		}
	})
}
