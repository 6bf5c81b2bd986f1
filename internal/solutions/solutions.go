// Package solutions registers every (mechanism, problem) solution pair
// and provides the standard workloads that drive them.
//
// The registry is the evaluation engine's raw material: RunStandard
// executes a solution under a kernel and judges its trace with the
// problem's oracle, and Sources embeds each solution package's text for
// the structural (constraint-independence) analysis.
package solutions

import (
	"embed"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions/ccrsol"
	"repro/internal/solutions/cspsol"
	"repro/internal/solutions/monitorsol"
	"repro/internal/solutions/pathexprsol"
	"repro/internal/solutions/semscale"
	"repro/internal/solutions/semsol"
	"repro/internal/solutions/serializersol"
	"repro/internal/trace"
)

// Sources embeds the text of every solution package, for decl-level
// structural analysis (package eval).
//
//go:embed ccrsol/*.go cspsol/*.go monitorsol/*.go pathexprsol/*.go semsol/*.go serializersol/*.go
var Sources embed.FS

// SourceDirs maps each of the six mechanism keys to its package
// directory in Sources.
var SourceDirs = map[string]string{
	"semaphore":  "semsol",
	"ccr":        "ccrsol",
	"pathexpr":   "pathexprsol",
	"monitor":    "monitorsol",
	"serializer": "serializersol",
	"csp":        "cspsol",
}

// SolutionTypes maps each standard problem to the type that solves it in
// every package of Sources: a naming convention the packages share.
var SolutionTypes = map[string]string{
	problems.NameBoundedBuffer:   "BoundedBuffer",
	problems.NameFCFS:            "FCFS",
	problems.NameReadersPriority: "ReadersPriority",
	problems.NameWritersPriority: "WritersPriority",
	problems.NameFCFSRW:          "FCFSRW",
	problems.NameDisk:            "Disk",
	problems.NameAlarmClock:      "AlarmClock",
	problems.NameOneSlot:         "OneSlot",
}

// Suite is one mechanism's complete set of problem solutions. Factories
// take the kernel because message-passing solutions spawn server daemons;
// shared-memory solutions ignore it.
type Suite struct {
	Mechanism string // key into core.Mechanisms

	NewBoundedBuffer   func(k kernel.Kernel, capacity int) problems.BoundedBuffer
	NewFCFS            func(k kernel.Kernel) problems.Resource
	NewReadersPriority func(k kernel.Kernel) problems.RWStore
	NewWritersPriority func(k kernel.Kernel) problems.RWStore
	NewFCFSRW          func(k kernel.Kernel) problems.RWStore
	NewDisk            func(k kernel.Kernel, start, maxTrack int64) problems.Disk
	NewAlarmClock      func(k kernel.Kernel) problems.AlarmClock
	NewOneSlot         func(k kernel.Kernel) problems.OneSlot
}

// All returns the six mechanism suites in historical order.
func All() []Suite {
	return []Suite{
		{
			Mechanism: "semaphore",
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return semsol.NewBoundedBuffer(c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return semsol.NewFCFS() },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return semsol.NewReadersPriority()
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return semsol.NewWritersPriority()
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return semsol.NewFCFSRW() },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return semsol.NewDisk(start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock { return semsol.NewAlarmClock() },
			NewOneSlot:    func(k kernel.Kernel) problems.OneSlot { return semsol.NewOneSlot() },
		},
		{
			Mechanism: "ccr",
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return ccrsol.NewBoundedBuffer(c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return ccrsol.NewFCFS() },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return ccrsol.NewReadersPriority()
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return ccrsol.NewWritersPriority()
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return ccrsol.NewFCFSRW() },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return ccrsol.NewDisk(start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock { return ccrsol.NewAlarmClock() },
			NewOneSlot:    func(k kernel.Kernel) problems.OneSlot { return ccrsol.NewOneSlot() },
		},
		{
			Mechanism: "pathexpr",
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return pathexprsol.NewBoundedBuffer(c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return pathexprsol.NewFCFS() },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return pathexprsol.NewReadersPriority()
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return pathexprsol.NewWritersPriority()
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return pathexprsol.NewFCFSRW() },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return pathexprsol.NewDisk(start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock { return pathexprsol.NewAlarmClock() },
			NewOneSlot:    func(k kernel.Kernel) problems.OneSlot { return pathexprsol.NewOneSlot() },
		},
		{
			Mechanism: "monitor",
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return monitorsol.NewBoundedBuffer(c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return monitorsol.NewFCFS() },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return monitorsol.NewReadersPriority()
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return monitorsol.NewWritersPriority()
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return monitorsol.NewFCFSRW() },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return monitorsol.NewDisk(start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock { return monitorsol.NewAlarmClock() },
			NewOneSlot:    func(k kernel.Kernel) problems.OneSlot { return monitorsol.NewOneSlot() },
		},
		{
			Mechanism: "serializer",
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return serializersol.NewBoundedBuffer(c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return serializersol.NewFCFS() },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return serializersol.NewReadersPriority()
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return serializersol.NewWritersPriority()
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return serializersol.NewFCFSRW() },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return serializersol.NewDisk(start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock {
				return serializersol.NewAlarmClock()
			},
			NewOneSlot: func(k kernel.Kernel) problems.OneSlot { return serializersol.NewOneSlot() },
		},
		{
			Mechanism: "csp",
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return cspsol.NewBoundedBuffer(k, c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return cspsol.NewFCFS(k) },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return cspsol.NewReadersPriority(k)
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return cspsol.NewWritersPriority(k)
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return cspsol.NewFCFSRW(k) },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return cspsol.NewDisk(k, start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock { return cspsol.NewAlarmClock(k) },
			NewOneSlot:    func(k kernel.Kernel) problems.OneSlot { return cspsol.NewOneSlot(k) },
		},
	}
}

// Variants returns the scalable-primitive variant suites (package
// semscale): the semsol solutions rebuilt on fetch-and-add and striped
// semaphores. They are intentionally NOT part of All() — the paper's
// T1–T6 tables and the conformance matrix evaluate the six historical
// mechanisms — but ByMechanism resolves them, so the load matrix and
// syncload can put their shed contention and sacrificed Bloom criteria
// (FCFS admission, see semscale's package comment) on the same footing.
//
// Disk, AlarmClock and OneSlot delegate to semsol: their private gate
// semaphores are per-request hand-offs where FIFO delivery is the
// specification, not a contended ingress worth striping.
func Variants() []Suite {
	mk := func(name string, f semscale.Factory) Suite {
		return Suite{
			Mechanism: name,
			NewBoundedBuffer: func(k kernel.Kernel, c int) problems.BoundedBuffer {
				return semscale.NewBoundedBuffer(f, c)
			},
			NewFCFS: func(k kernel.Kernel) problems.Resource { return semscale.NewFCFSResource(f) },
			NewReadersPriority: func(k kernel.Kernel) problems.RWStore {
				return semscale.NewReadersPriority(f)
			},
			NewWritersPriority: func(k kernel.Kernel) problems.RWStore {
				return semscale.NewWritersPriority(f)
			},
			NewFCFSRW: func(k kernel.Kernel) problems.RWStore { return semscale.NewFCFSRW(f) },
			NewDisk: func(k kernel.Kernel, start, max int64) problems.Disk {
				return semsol.NewDisk(start, max)
			},
			NewAlarmClock: func(k kernel.Kernel) problems.AlarmClock { return semsol.NewAlarmClock() },
			NewOneSlot:    func(k kernel.Kernel) problems.OneSlot { return semsol.NewOneSlot() },
		}
	}
	return []Suite{
		mk("semaphore-fast", semscale.FastFactory()),
		mk("semaphore-striped", semscale.StripedFactory(0)),
	}
}

// ByMechanism finds a suite by mechanism key, searching the six historical
// suites first, then the scalable variants.
func ByMechanism(name string) (Suite, bool) {
	for _, s := range All() {
		if s.Mechanism == name {
			return s, true
		}
	}
	for _, s := range Variants() {
		if s.Mechanism == name {
			return s, true
		}
	}
	return Suite{}, false
}

// RWConstructor returns the suite's constructor for the named
// readers–writers variant, or false for non-RW problem names. Shared by
// the standard-workload builder and the load subsystem, which otherwise
// would each hard-code the variant dispatch.
func RWConstructor(s Suite, problem string) (func(kernel.Kernel) problems.RWStore, bool) {
	switch problem {
	case problems.NameReadersPriority:
		return s.NewReadersPriority, true
	case problems.NameWritersPriority:
		return s.NewWritersPriority, true
	case problems.NameFCFSRW:
		return s.NewFCFSRW, true
	}
	return nil, false
}

// Standard workload parameters, shared by conformance tests, the
// evaluation engine, and the benchmarks so that all of them exercise the
// same histories.
const (
	StdBufferCap = 3
	StdDiskStart = 50
	StdDiskMax   = 200
)

// StdBBConfig is the standard bounded-buffer workload.
func StdBBConfig() problems.BBConfig {
	return problems.BBConfig{Producers: 3, Consumers: 2, ItemsPerProducer: 10, WorkYields: 2}
}

// StdFCFSConfig is the standard allocator workload.
func StdFCFSConfig() problems.FCFSConfig {
	return problems.FCFSConfig{Processes: 5, Rounds: 4, WorkYields: 2, GapYields: 3}
}

// StdRWConfig is the standard readers–writers workload.
func StdRWConfig() problems.RWConfig {
	return problems.RWConfig{Readers: 4, Writers: 2, Rounds: 4, ReadYields: 2, WriteYields: 3, GapYields: 2}
}

// StdDiskConfig is the standard disk workload: a pre-loaded batch plus
// staggered arrivals on both sides of the start track.
func StdDiskConfig() problems.DiskConfig {
	return problems.DiskConfig{
		Requests: []problems.DiskRequest{
			{Track: 55, Delay: 0},
			{Track: 10, Delay: 0},
			{Track: 60, Delay: 0},
			{Track: 90, Delay: 4},
			{Track: 20, Delay: 4},
			{Track: 75, Delay: 9},
			{Track: 40, Delay: 14},
			{Track: 120, Delay: 18},
		},
		WorkYields: 4,
	}
}

// StdClockConfig is the standard alarm-clock workload.
func StdClockConfig() problems.ClockConfig {
	return problems.ClockConfig{
		Sleepers: []problems.Sleeper{
			{Ticks: 5, Delay: 0},
			{Ticks: 2, Delay: 0},
			{Ticks: 9, Delay: 3},
			{Ticks: 1, Delay: 4},
			{Ticks: 7, Delay: 6},
			{Ticks: 3, Delay: 8},
		},
		TotalTicks: 15,
	}
}

// StdOneSlotConfig is the standard one-slot workload.
func StdOneSlotConfig() problems.OneSlotConfig {
	return problems.OneSlotConfig{Producers: 2, Consumers: 2, ItemsPerProducer: 8}
}

// StandardProgram returns the suite's solution to the named problem as a
// spawn-only program over the standard workload, plus the oracle that
// judges its traces. The program constructs a fresh solution instance per
// invocation and spawns the workload processes without running the
// kernel, which is exactly the shape schedule exploration needs (package
// explore replays the same program under many schedules). strict
// additionally checks priority/ordering constraints, which are exact only
// on deterministic (SimKernel) traces.
func StandardProgram(s Suite, problem string, strict bool) (func(k kernel.Kernel, r *trace.Recorder), func(trace.Trace) []problems.Violation, error) {
	var prog func(k kernel.Kernel, r *trace.Recorder)
	var check func(trace.Trace) []problems.Violation

	switch problem {
	case problems.NameBoundedBuffer:
		cfg := StdBBConfig()
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			bb := s.NewBoundedBuffer(k, StdBufferCap)
			_ = problems.SpawnBoundedBuffer(k, bb, r, cfg) // Std config is valid
		}
		check = func(tr trace.Trace) []problems.Violation {
			return problems.CheckBoundedBuffer(tr, StdBufferCap, cfg.TotalItems())
		}
	case problems.NameFCFS:
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			_ = problems.SpawnFCFS(k, s.NewFCFS(k), r, StdFCFSConfig())
		}
		check = func(tr trace.Trace) []problems.Violation { return problems.CheckFCFS(tr, strict) }
	case problems.NameReadersPriority, problems.NameWritersPriority, problems.NameFCFSRW:
		newDB, _ := RWConstructor(s, problem)
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			_ = problems.SpawnRW(k, newDB(k), r, StdRWConfig())
		}
		check = func(tr trace.Trace) []problems.Violation {
			return problems.CheckRW(problem, tr, strict)
		}
	case problems.NameDisk:
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			_ = problems.SpawnDisk(k, s.NewDisk(k, StdDiskStart, StdDiskMax), r, StdDiskConfig())
		}
		check = func(tr trace.Trace) []problems.Violation {
			return problems.CheckDisk(tr, StdDiskStart, strict)
		}
	case problems.NameAlarmClock:
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			_ = problems.SpawnAlarmClock(k, s.NewAlarmClock(k), r, StdClockConfig())
		}
		check = problems.CheckAlarmClock
	case problems.NameOneSlot:
		cfg := StdOneSlotConfig()
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			_ = problems.SpawnOneSlot(k, s.NewOneSlot(k), r, cfg)
		}
		check = func(tr trace.Trace) []problems.Violation {
			return problems.CheckOneSlot(tr, cfg.TotalItems())
		}
	default:
		return nil, nil, fmt.Errorf("solutions: unknown problem %q", problem)
	}
	return prog, check, nil
}

// RunStandard drives the suite's solution to the named problem with the
// standard workload on k, then judges the trace. strict additionally
// checks priority/ordering constraints, which are exact only on
// deterministic (SimKernel) traces. The trace is returned for further
// analysis; err is the kernel's verdict (deadlock, timeout).
func RunStandard(k kernel.Kernel, s Suite, problem string, strict bool) (trace.Trace, []problems.Violation, error) {
	prog, check, err := StandardProgram(s, problem, strict)
	if err != nil {
		return nil, nil, err
	}
	r := trace.NewRecorder(k)
	prog(k, r)
	err = k.Run()
	tr := r.Events()
	if err != nil {
		return tr, nil, fmt.Errorf("solutions: %s/%s: %w", s.Mechanism, problem, err)
	}
	return tr, check(tr), nil
}
