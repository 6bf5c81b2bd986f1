package problems

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// The FCFS resource is the paper's test case for *request time*
// information (footnote 2): the only priority rule is arrival order.

// OpUse is the allocator's single operation name in traces.
const OpUse = "use"

// FCFSSpec is the first-come-first-served allocator's scheme.
func FCFSSpec() core.Scheme {
	return core.Scheme{
		Name: NameFCFS,
		Constraints: []core.Constraint{
			{
				ID:   "resource-exclusion",
				Kind: core.Exclusion,
				Uses: []core.InfoType{core.SyncState},
				Desc: "if a process is using the resource then exclude all others",
			},
			{
				ID:   "fcfs-order",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestTime},
				Desc: "if A requested before B then A has priority over B",
			},
		},
	}
}

// Resource is the FCFS allocator interface: one operation, served
// strictly in arrival order.
type Resource interface {
	// Use runs body with exclusive use of the resource.
	Use(p *kernel.Proc, body func())
}

// FCFSConfig parameterizes the allocator workload.
type FCFSConfig struct {
	Processes  int
	Rounds     int
	WorkYields int
	// GapYields inserts yields between a process's rounds so arrivals
	// interleave rather than batch.
	GapYields int
}

// SpawnFCFS spawns the workload processes against res on k, recording
// into r; the caller runs the kernel.
func SpawnFCFS(k kernel.Kernel, res Resource, r *trace.Recorder, cfg FCFSConfig) error {
	for i := 0; i < cfg.Processes; i++ {
		k.Spawn("user", func(p *kernel.Proc) {
			for j := 0; j < cfg.Rounds; j++ {
				r.Request(p, OpUse, trace.NoArg)
				res.Use(p, func() {
					r.Enter(p, OpUse, trace.NoArg)
					for y := 0; y < cfg.WorkYields; y++ {
						p.Yield()
					}
					r.Exit(p, OpUse, trace.NoArg)
				})
				for y := 0; y < cfg.GapYields; y++ {
					p.Yield()
				}
			}
		})
	}
	return nil
}

// DriveFCFS spawns the workload via SpawnFCFS and returns the kernel's
// verdict from running it to completion.
func DriveFCFS(k kernel.Kernel, res Resource, r *trace.Recorder, cfg FCFSConfig) error {
	if err := SpawnFCFS(k, res, r, cfg); err != nil {
		return err
	}
	return k.Run()
}

// CheckFCFS judges an allocator trace: exclusive use, admitted strictly in
// request order.
//
// The order check is exact and therefore meaningful on deterministic
// (SimKernel) traces, where nothing can reorder a request between its
// recording and its arrival at the mechanism; real-kernel runs should be
// judged on exclusion only (pass checkOrder=false).
func CheckFCFS(tr trace.Trace, checkOrder bool) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	var out []Violation
	out = append(out, overlapViolations("resource-exclusion", ivs,
		func(a, b string) bool { return false })...)

	if checkOrder {
		for _, iv := range ivs {
			if iv.RequestSeq == 0 {
				out = append(out, Violation{Rule: "instrumentation",
					Detail: fmt.Sprintf("%s has no request event", iv), Seq: iv.EnterSeq})
			}
		}
		// An admission out of request order counts only if a release
		// happened while the earlier request was waiting (see the
		// release-window rule of trace.Overtakings).
		out = append(out, orderInversions("fcfs-order", ivs, releaseSeqs(tr, OpUse), nil)...)
	}
	return out
}
