package synclint

import "testing"

// Load-generator-shaped fixtures: a driver that spawns one closure per
// arrival, with the operation's trace pair recorded inside the spawned
// closure. This is the shape internal/load's engine uses, and the
// analyzers must judge it the same way they judge solution code.

// An arrival closure that can bail out between Enter and Exit leaks an
// open interval into the trace — the oracle would see a phantom
// still-running operation.
func TestBracketLoadGeneratorPositive(t *testing.T) {
	findings, _ := runOne(t, BracketAnalyzer, `
package fixture

func Generate(k *Kernel, rec *Recorder, hurry bool) {
	k.Spawn("op", func(p *Proc) {
		rec.Enter(p, "use", 0)
		if hurry {
			return // abandons the op with its trace interval open
		}
		rec.Exit(p, "use", 0)
	})
}
`)
	wantFinding(t, findings, "trace")
}

// The engine's actual shape — pair balanced within the spawned closure,
// each arrival a fresh process — is clean.
func TestBracketLoadGeneratorNegative(t *testing.T) {
	findings, _ := runOne(t, BracketAnalyzer, `
package fixture

func Generate(k *Kernel, rec *Recorder, n int) {
	for i := 0; i < n; i++ {
		k.Spawn("op", func(p *Proc) {
			rec.Enter(p, "use", 0)
			p.Yield()
			rec.Exit(p, "use", 0)
		})
	}
}
`)
	wantClean(t, findings)
}

// The load package itself must pass the bracket and escape analyzers:
// its measurement hooks wrap every solution operation, so an imbalance
// there would corrupt every real-runtime trace it records. It needs no
// suppression: the synth workload hands its record points to the
// adapter as a synth.Hooks value, and the adapter records Enter/Exit
// inside the mechanism's grant/release critical sections (the reasoned
// bracket allows for that split live in package synth). Any suppression
// here fails.
func TestLoadPackageDiscipline(t *testing.T) {
	pkg, err := LoadDir("../load")
	if err != nil {
		t.Fatalf("load ../load: %v", err)
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files loaded from ../load")
	}
	findings, suppressed := Run(pkg, []*Analyzer{BracketAnalyzer, EscapeAnalyzer})
	if suppressed > 0 {
		t.Fatalf("load package needs %d allow-annotations; none is sanctioned", suppressed)
	}
	wantClean(t, findings)
}
