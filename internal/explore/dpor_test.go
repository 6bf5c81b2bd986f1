package explore

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// deepFigure1Program is the Figure-1 anomaly embedded in a scaled
// workload: the same path-expression readers-priority solution, driven
// by a readers–writers scenario wide and deep enough (long writes,
// arrival gaps) that the anomaly hides in a ~2^36 schedule space instead
// of the footnote's 3-process sketch. This is the deep hunt partial-order
// reduction exists for.
func deepFigure1Program() Program {
	suite, _ := solutions.ByMechanism("pathexpr")
	cfg := problems.RWConfig{Readers: 3, Writers: 2, Rounds: 1,
		WriteYields: 6, ReadYields: 1, GapYields: 1}
	return func(k kernel.Kernel, r *trace.Recorder) {
		_ = problems.SpawnRW(k, suite.NewReadersPriority(k), r, cfg)
	}
}

// monitor20Program is the hunt's 20-process clean scenario: twelve
// readers and eight writers, four rounds each, on the monitor
// readers-priority solution, with one yield in every body and gap. Its
// runs are long and have hundreds of branch points.
func monitor20Program() Program {
	suite, _ := solutions.ByMechanism("monitor")
	cfg := problems.RWConfig{Readers: 12, Writers: 8, Rounds: 4,
		WriteYields: 1, ReadYields: 1, GapYields: 1}
	return func(k kernel.Kernel, r *trace.Recorder) {
		_ = problems.SpawnRW(k, suite.NewReadersPriority(k), r, cfg)
	}
}

// DPOR must reach the Figure-1 finding in at least 5x fewer schedules
// than fingerprint pruning alone on the deep scenario (the acceptance
// bar for this optimization), and the reduced finding must still replay.
func TestDPORReachesFindingFaster(t *testing.T) {
	opts := Options{RandomRuns: -1, DFSRuns: 200000, DFSDepth: 48, Prune: true}
	pruneOnly := Run(deepFigure1Program(), problems.CheckReadersPriority, opts)
	if !pruneOnly.Found {
		t.Fatalf("pruned DFS found nothing in %d runs", pruneOnly.Runs)
	}

	reduced := opts
	reduced.DPOR = true
	fast := Run(deepFigure1Program(), problems.CheckReadersPriority, reduced)
	if !fast.Found {
		t.Fatalf("DPOR found nothing in %d runs (backtracks %d, blocked %d)",
			fast.Runs, fast.Stats.BacktrackPoints, fast.Stats.DPORBlocked)
	}
	if fast.Err != nil {
		t.Fatalf("DPOR reported a kernel error: %v", fast.Err)
	}
	if fast.Runs*5 > pruneOnly.Runs {
		t.Fatalf("reduction saved too little: %d runs with DPOR vs %d with prune alone (want >= 5x fewer)",
			fast.Runs, pruneOnly.Runs)
	}
	if fast.Stats.BacktrackPoints == 0 || fast.Stats.DPORBlocked == 0 {
		t.Fatalf("reduction counters empty: %+v", fast.Stats)
	}
	// The reduced finding must still replay to a real violation.
	tr, err := Replay(deepFigure1Program(), fast.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if vs := problems.CheckReadersPriority(tr); len(vs) == 0 {
		t.Fatalf("reduced finding does not replay:\n%s", tr)
	}
	t.Logf("schedules to finding: %d with prune, %d with DPOR (%.1fx)",
		pruneOnly.Runs, fast.Runs, float64(pruneOnly.Runs)/float64(fast.Runs))
}

// TestDPORMatchesFull is the reduction's correctness contract over the
// full T4 suite: at Workers 1, 4, and max, the audited reduced search
// misses no violation rule the unreduced frontier surfaces, never runs
// more schedules than the unreduced engine, runs strictly fewer in
// aggregate, claims Exhausted only with no cut run, and returns
// byte-identical Results (CutRuns included) at every worker count.
func TestDPORMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite audit is slow")
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			suite, problem := suite, problem
			t.Run(suite.Mechanism+"/"+problem, func(t *testing.T) {
				t.Parallel()
				strict := !(suite.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
				prog, check, err := solutions.StandardProgram(suite, problem, strict)
				if err != nil {
					t.Fatal(err)
				}
				base := Options{
					RandomRuns: -1,
					DFSRuns:    400,
					DFSDepth:   12,
					DPOR:       true,
					Prune:      true,
					Audit:      true,
				}
				var ref Result
				for i, w := range workerCounts {
					opts := base
					opts.Workers = w
					res := Run(Program(prog), check, opts)
					if errors.Is(res.Err, ErrAuditFailed) {
						t.Fatalf("workers=%d: %v", w, res.Err)
					}
					if res.Stats.Exhausted && res.Stats.CutRuns != 0 {
						t.Fatalf("workers=%d: Exhausted with %d cut runs", w, res.Stats.CutRuns)
					}
					if i == 0 {
						ref = res
						continue
					}
					if res.Found != ref.Found || res.Runs != ref.Runs || res.Stats != ref.Stats {
						t.Fatalf("workers=%d diverged from workers=%d:\n%+v\n%+v",
							w, workerCounts[0], res.Stats, ref.Stats)
					}
				}

				// The unreduced engine at the same budget: the reduced
				// tree is a subtree of the full one, so reduced never
				// needs more runs.
				plain := base
				plain.Audit, plain.DPOR, plain.Prune = false, false, false
				plain.Workers = 1
				pres := Run(Program(prog), check, plain)
				if ref.Runs > pres.Runs {
					t.Fatalf("reduced search ran more schedules than unreduced: %d vs %d",
						ref.Runs, pres.Runs)
				}
				if pres.Found && !ref.Found {
					t.Fatalf("reduced search missed the unreduced finding (%d vs %d runs)",
						ref.Runs, pres.Runs)
				}
				if ref.Runs == pres.Runs && ref.Stats.Exhausted && !pres.Stats.Exhausted {
					t.Fatalf("reduced search exhausted at the full budget while unreduced did not")
				}
				if ref.Runs < pres.Runs {
					t.Logf("runs: %d reduced vs %d unreduced", ref.Runs, pres.Runs)
				}
			})
		}
	}
}

// On scenarios of truly independent processes the reduced search
// collapses to a handful of runs, far fewer than plain exhaustion
// enumerates on the small case. The other cases are 40 one-step
// processes, and a 4202-step run past DPOR's analysis window, whose late
// races the reduction never sees: every DFS run there is cut, so the
// search does not claim Exhausted.
func TestDPORIndependentProcessesCollapse(t *testing.T) {
	for _, c := range []struct {
		name   string
		yields []int // per process; a process runs yields+1 steps
		plain  bool  // small enough for plain DFS to enumerate
		cut    bool  // every DFS run is longer than dporAnalysisCap
	}{
		{"2x3", []int{2, 2}, true, false},
		{"40x1", make([]int, 40), false, false},
		{"4201+1", []int{4200, 0}, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
				for _, n := range c.yields {
					k.Spawn("p", func(p *kernel.Proc) {
						for i := 0; i < n; i++ {
							p.Yield()
						}
					})
				}
			})
			noOracle := func(trace.Trace) []problems.Violation { return nil }
			exhaust := Options{RandomRuns: -1, DFSRuns: 1 << 20, DFSDepth: 64, DPOR: true}
			fast := Run(prog, noOracle, exhaust)
			if fast.Err != nil {
				t.Fatalf("reduced DFS: %v", fast.Err)
			}
			if c.cut {
				// The baseline is judged outside the DFS; every DFS run is cut.
				if fast.Stats.Exhausted || fast.Stats.CutRuns != fast.Runs-1 {
					t.Fatalf("exhausted %v with %d of %d DFS runs cut, want every run cut",
						fast.Stats.Exhausted, fast.Stats.CutRuns, fast.Runs-1)
				}
				return
			}
			if !fast.Stats.Exhausted || fast.Stats.CutRuns != 0 {
				t.Fatalf("reduced DFS did not exhaust (%d runs, %d cut)", fast.Runs, fast.Stats.CutRuns)
			}
			if !c.plain {
				return
			}
			plainOpts := exhaust
			plainOpts.DPOR = false
			plain := Run(prog, noOracle, plainOpts)
			if !plain.Stats.Exhausted {
				t.Fatalf("plain DFS did not exhaust (%d runs)", plain.Runs)
			}
			// Independent steps all commute: one schedule per equivalence class.
			if fast.Runs*4 > plain.Runs {
				t.Fatalf("independent processes barely reduced: %d vs %d runs", fast.Runs, plain.Runs)
			}
		})
	}
}

// A spawn touches its child's cell before the child appears in any ready
// set, and a run cut short by Stop or the step limit can end right there,
// so a run's dependency objects can reach past every id in its ready
// sets. expand sizes its per-object table from the accesses; here the
// children's cells (2 and 3) are never in a ready set, and the one race
// is the two trace accesses.
func TestDPORExpandSpawnAtCutoff(t *testing.T) {
	out := runOut{
		// p0 records; p1 records, spawns p2 and p3, and the run stops.
		schedule: []kernel.Choice{{Ready: 2, Picked: 0}, {Ready: 2, Picked: 0}},
		visible:  []bool{true, true},
		fps:      []uint64{1, 2},
		deps: []kernel.DepAccess{
			{Step: -1, Obj: 0}, {Step: -1, Obj: 1},
			{Step: 0, Obj: kernel.DepObjTrace},
			{Step: 1, Obj: kernel.DepObjTrace}, {Step: 1, Obj: 2}, {Step: 1, Obj: 3},
		},
		readyIDs: []int32{0, 1, 1, 0},
		causes:   []int32{-1, -1},
	}
	pruned := 0
	children, blocked := newDPORState().expand(nil, out, 64, nil, &pruned)
	// The race puts p1 first at decision 0; decision 1's alternative (p0
	// before p1's step) commutes and stays blocked.
	want := [][]kernel.Choice{{{Ready: 2, Picked: 1}}}
	if !reflect.DeepEqual(children, want) || blocked != 1 || pruned != 0 {
		t.Fatalf("expand = %v, blocked %d, pruned %d; want %v, blocked 1, pruned 0",
			children, blocked, pruned, want)
	}
}

// DPOR is rejected nowhere but composes everywhere: spot-check that the
// audit passes with the whole option surface enabled at once.
func TestDPORAuditFullComposition(t *testing.T) {
	inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
	if !ok {
		t.Fatal("no incremental oracle for readers-priority")
	}
	opts := Options{
		RandomRuns: 20,
		DFSRuns:    200,
		DFSDepth:   16,
		DPOR:       true,
		Audit:      true,
		Prune:      true,
		Stream:     inc.New,
		Shrink:     true,
	}
	res := Run(figure1Program(), problems.CheckReadersPriority, opts)
	if errors.Is(res.Err, ErrAuditFailed) {
		t.Fatalf("audit failed under full composition: %v", res.Err)
	}
	if !res.Found {
		t.Fatalf("figure-1 anomaly not found under full composition (%d runs)", res.Runs)
	}
}

// vcPass is the race pass on per-step vector clocks, the reference the
// bitset pass (dporState.races) is held to. Component p of a step's
// clock is the latest step of process p that happens before it, and a
// pair (i, j) races when i's process has no step at or after i in j's
// pre-access clock. Its scratch is reused across runs.
type vcPass struct {
	clocks []int32 // flat per-step clocks, stride = max id + 1
	pc     []int32 // pre-access clock of the step under analysis
}

func (v *vcPass) races(d *dporState, out runOut, limit int, expanded map[uint64]bool, pruned *int) {
	steps := min(len(out.schedule), dporAnalysisCap)
	stride := len(d.lastOf)
	v.clocks = resize(v.clocks, steps*stride)
	v.pc = resize(v.pc, stride)
	pc := v.pc
	join := func(dst []int32, step int) {
		for i, c := range v.clocks[step*stride : (step+1)*stride] {
			dst[i] = max(dst[i], c)
		}
	}
	deps := out.deps
	di := 0
	for di < len(deps) && deps[di].Step < 0 {
		di++
	}
	for j := 0; j < steps; j++ {
		q := d.stepProc[j]
		if last := d.lastOf[q]; last >= 0 {
			copy(pc, v.clocks[int(last)*stride:(int(last)+1)*stride])
		} else {
			for i := range pc {
				pc[i] = -1
			}
		}
		if c := out.causes[j]; c >= 0 && int(c) < j {
			join(pc, int(c))
		}
		start := di
		for ; di < len(deps) && deps[di].Step == int32(j); di++ {
			if i := d.lastAcc[d.slot(deps[di].Obj)]; i >= 0 {
				if p := d.stepProc[i]; p != q && pc[p] < i {
					d.propose(int(i), q, out, limit, expanded, pruned)
				}
			}
		}
		jc := v.clocks[j*stride : (j+1)*stride]
		copy(jc, pc)
		for k := start; k < di; k++ {
			if i := d.lastAcc[d.slot(deps[k].Obj)]; i >= 0 {
				join(jc, int(i))
			}
		}
		jc[q] = int32(j)
		d.lastOf[q] = int32(j)
		for k := start; k < di; k++ {
			d.lastAcc[d.slot(deps[k].Obj)] = int32(j)
		}
	}
}

// expand is dporState.expand with the reference race pass.
func (v *vcPass) expand(d *dporState, prefix []kernel.Choice, out runOut, depth int, expanded map[uint64]bool, pruned *int) ([][]kernel.Choice, int) {
	limit, ok := d.prepare(out, depth, expanded)
	if !ok {
		return expandDFS(prefix, out, depth, expanded, pruned), 0
	}
	v.races(d, out, limit, expanded, pruned)
	return d.children(prefix, out, limit)
}

// dporDFS runs a DPOR-reduced DFS of prog for at most runs schedules,
// replaying every prefix from the root, and hands each run to step,
// which returns the run's children. The run's views are valid only
// during the call.
func dporDFS(prog Program, runs int, step func(prefix []kernel.Choice, out runOut) [][]kernel.Choice) {
	e := newExecutor(Options{DPOR: true}.withDefaults())
	defer e.close()
	stack := [][]kernel.Choice{nil}
	seen := map[string]bool{}
	for n := 0; n < runs && len(stack) > 0; {
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if key := string(appendScheduleKey(nil, prefix)); !seen[key] {
			seen[key] = true
			n++
			out := e.run(prog, kernel.Replay(prefix))
			stack = append(stack, step(prefix, out)...)
			e.release(out)
		}
	}
}

// racePassCounts summarizes what compareRacePasses exercised.
type racePassCounts struct {
	runs, children, maxBranchPoints int
}

func (c *racePassCounts) add(o racePassCounts) {
	c.runs += o.runs
	c.children += o.children
	c.maxBranchPoints = max(c.maxBranchPoints, o.maxBranchPoints)
}

// compareRacePassSettings runs compareRacePasses at the depth bounds the
// repo's searches use (T8's 12, the default 40, 64 as one bitset word
// holds) and with no bound, each with Prune on and off.
func compareRacePassSettings(prog Program, runs int) (racePassCounts, error) {
	var total racePassCounts
	for _, depth := range []int{12, 40, 64, 1 << 20} {
		for _, prune := range []bool{false, true} {
			c, err := compareRacePasses(prog, depth, prune, runs)
			if err != nil {
				return total, fmt.Errorf("depth %d, prune %v: %w", depth, prune, err)
			}
			total.add(c)
		}
	}
	return total, nil
}

// TestRacePassMatchesVectorClocks holds the bitset race pass to the
// vector-clock reference on runs of the T4 suite and of the hunt's deep
// Figure-1 and 20-process monitor scenarios: both must propose the same
// children, block and prune the same siblings, and leave the same
// sleep-set memory. The synth corpus cases are in racepass_test.go.
func TestRacePassMatchesVectorClocks(t *testing.T) {
	type input struct {
		name string
		prog Program
		runs int
	}
	inputs := []input{
		{"figure1-deep", deepFigure1Program(), 60},
		{"monitor20", monitor20Program(), 20},
	}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			prog, _, err := solutions.StandardProgram(suite, problem, true)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{suite.Mechanism + "/" + problem, Program(prog), 20})
		}
	}
	var total racePassCounts
	for _, in := range inputs {
		c, err := compareRacePassSettings(in.prog, in.runs)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		total.add(c)
	}
	// The comparison means something only if races were proposed and
	// some run needed more than one bitset word.
	if total.children == 0 || total.maxBranchPoints <= 64 {
		t.Fatalf("weak comparison: %d runs, %d children, at most %d branch points in a run",
			total.runs, total.children, total.maxBranchPoints)
	}
	t.Logf("%d runs, %d children, up to %d branch points in a run", total.runs, total.children, total.maxBranchPoints)
}

// compareRacePasses runs a DPOR DFS of prog at the given depth bound,
// with and without Prune, and expands every run with both race passes,
// each on its own dporState. It reports the first run whose children,
// blocked count or pruned count differ, or sleep-set memory that
// differs at the end.
func compareRacePasses(prog Program, depth int, prune bool, runs int) (racePassCounts, error) {
	bits, vc := newDPORState(), newDPORState()
	var ref vcPass
	var bitsExp, vcExp map[uint64]bool
	if prune {
		bitsExp, vcExp = map[uint64]bool{}, map[uint64]bool{}
	}
	var counts racePassCounts
	var err error
	dporDFS(prog, runs, func(prefix []kernel.Choice, out runOut) [][]kernel.Choice {
		if err != nil {
			return nil
		}
		var bp, vp int
		got, gotBlocked := bits.expand(prefix, out, depth, bitsExp, &bp)
		want, wantBlocked := ref.expand(vc, prefix, out, depth, vcExp, &vp)
		if !reflect.DeepEqual(got, want) || gotBlocked != wantBlocked || bp != vp {
			err = fmt.Errorf("run %d (prefix of %d choices): bitset pass gave %d children, %d blocked, %d pruned; vector clocks %d, %d, %d",
				counts.runs, len(prefix), len(got), gotBlocked, bp, len(want), wantBlocked, vp)
			return nil
		}
		counts.runs++
		counts.children += len(got)
		points := 0
		for _, b := range bits.bit {
			if b >= 0 {
				points++
			}
		}
		counts.maxBranchPoints = max(counts.maxBranchPoints, points)
		return got
	})
	if err == nil && (!reflect.DeepEqual(bits.groupSeen, vc.groupSeen) || !reflect.DeepEqual(bits.stateSeen, vc.stateSeen)) {
		err = fmt.Errorf("sleep-set memory diverged after %d runs", counts.runs)
	}
	return counts, err
}

// recordedRun is a run's prefix and outcome, copied out of its slot.
type recordedRun struct {
	prefix []kernel.Choice
	out    runOut
}

// recordDPORRuns records the first runs of a pruned DPOR DFS of prog at
// the given depth bound, the settings the hunt explores with.
func recordDPORRuns(prog Program, depth, runs int) []recordedRun {
	d := newDPORState()
	expanded := map[uint64]bool{}
	pruned := 0
	var rec []recordedRun
	dporDFS(prog, runs, func(prefix []kernel.Choice, out runOut) [][]kernel.Choice {
		rec = append(rec, recordedRun{prefix: prefix, out: runOut{
			schedule: slices.Clone(out.schedule),
			fps:      slices.Clone(out.fps),
			visible:  slices.Clone(out.visible),
			deps:     slices.Clone(out.deps),
			readyIDs: slices.Clone(out.readyIDs),
			causes:   slices.Clone(out.causes),
		}})
		children, _ := d.expand(prefix, out, depth, expanded, &pruned)
		return children
	})
	return rec
}

// BenchmarkDPORRacePass is the DPOR race analysis as its own layer: one
// op is one expand, on a driver's long-lived dporState, of a run
// recorded once from the hunt's deep Figure-1 or 20-process monitor
// scenario, at the default depth bound 40 or with none. The recorded
// runs are expanded in turn, each once before timing, so the sleep-set
// memory is warm as it is deep into a search. The -vc rows run the
// vector-clock reference (vcPass) the bitset pass replaced.
func BenchmarkDPORRacePass(b *testing.B) {
	for _, sc := range []struct {
		name string
		prog Program
	}{{"figure1-deep", deepFigure1Program()}, {"monitor20", monitor20Program()}} {
		for _, bound := range []struct {
			name  string
			depth int
		}{{"depth40", 40}, {"nobound", 1 << 20}} {
			runs := recordDPORRuns(sc.prog, bound.depth, 64)
			var ref vcPass
			for _, pass := range []struct {
				suffix string
				expand func(d *dporState, r recordedRun, expanded map[uint64]bool, pruned *int)
			}{
				{"", func(d *dporState, r recordedRun, expanded map[uint64]bool, pruned *int) {
					d.expand(r.prefix, r.out, bound.depth, expanded, pruned)
				}},
				{"-vc", func(d *dporState, r recordedRun, expanded map[uint64]bool, pruned *int) {
					ref.expand(d, r.prefix, r.out, bound.depth, expanded, pruned)
				}},
			} {
				b.Run(sc.name+"/"+bound.name+pass.suffix, func(b *testing.B) {
					d := newDPORState()
					expanded := map[uint64]bool{}
					pruned := 0
					for _, r := range runs {
						pass.expand(d, r, expanded, &pruned)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pass.expand(d, runs[i%len(runs)], expanded, &pruned)
					}
				})
			}
		}
	}
}
