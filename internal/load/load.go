// Package load generates traffic against the real kernel and measures
// it. The paper evaluates synchronization mechanisms qualitatively —
// expressive power, modularity, ease of use; this package adds the
// quantitative axis: the same solutions the simulator verifies
// exhaustively are run as genuinely concurrent Go on kernel.RealKernel
// under generated load, and their latency, throughput, and per-class
// fairness are measured.
//
// Two traffic models are provided (see ArrivalKind): open-loop arrivals
// (Poisson, uniform, burst) that offer operations at scheduled instants
// regardless of backlog — latency is measured from the intended arrival
// time, so queueing delay is never hidden by coordinated omission — and
// closed-loop traffic from a fixed client population with think time.
// The open-loop generator reaches each instant within microseconds: it
// sleeps on the runtime's timers, then in the OS, then yields (see
// waitUntil). Runtime timers alone wake an idle process about half a
// millisecond late, and open-loop latency would measure that timer
// rather than the mechanism. How late each arrival was spawned is
// recorded in Result.Lag.
//
// The sim↔real loop: a run can record its history into the ordinary
// trace.Recorder and have it judged by the same problem oracles the
// exploration engine uses, once every kernel daemon is quiescent (a csp
// server records on its clients' behalf). Exclusion and resource-safety
// constraints are exact on real traces and are checked here;
// FCFS/priority ordering constraints are only exact on deterministic
// traces and remain the simulator's job. A property proven over every
// schedule in simulation is thereby continuously spot-checked under real
// concurrency (and, in CI, under the race detector).
package load

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// kernelTick is the RealKernel tick of every load run: think times
// (Config.ThinkTicks) and the generator's coarse sleeps count in it.
const kernelTick = time.Microsecond

// Config parameterizes one load run.
type Config struct {
	Mechanism string      // key into solutions.All
	Problem   string      // one of LoadProblems
	Arrival   ArrivalKind // traffic model

	// RatePerSec is the open-loop offered rate (mean arrivals/second).
	RatePerSec float64
	// BurstSize is the arrivals per burst for ArrivalBurst.
	BurstSize int

	// Clients is the closed-loop population size.
	Clients int
	// ThinkTicks is the closed-loop mean think time between a client's
	// operations, in kernel ticks (exponentially distributed; 0 disables
	// thinking).
	ThinkTicks int64

	// Duration bounds the traffic-generation phase on the kernel clock;
	// operations in flight at the deadline are drained, not cut. Zero
	// means MaxOps alone governs (both zero: 1 second).
	Duration time.Duration
	// MaxOps caps the number of operations issued. Zero means unbounded
	// (Duration governs). Balanced workloads round down to whole cycles.
	MaxOps int64

	// Seed makes the offered traffic (arrival instants, class choices,
	// think times) deterministic; the real-kernel interleaving of course
	// is not. Defaults to 1.
	Seed int64

	// ReadFraction is the read share of RW workloads (default 0.9 — a
	// reader flood, the regime that exposes writer starvation).
	ReadFraction float64
	// BufferCap is the bounded-buffer capacity (default the standard
	// workload's solutions.StdBufferCap).
	BufferCap int
	// WorkYields stretches each operation body with yields, widening the
	// contention windows the oracles observe.
	WorkYields int

	// Watchdog bounds Run (default Duration + 30s).
	Watchdog time.Duration

	// Trace records the run into a trace.Recorder and judges it with the
	// problem's oracle (exclusion/safety rules; see the package comment).
	// Costs memory proportional to the operation count.
	Trace bool

	// DiurnalPeriod is the modulation period of ArrivalDiurnal (default
	// 60s): the offered rate swings sinusoidally around RatePerSec over
	// each period.
	DiurnalPeriod time.Duration

	// SnapshotEvery streams incremental soak snapshots: every interval of
	// kernel-clock time, OnSnapshot is called with a mid-run Result whose
	// histograms are consistent merged copies (quantiles of a non-empty
	// class are never 0 — see Histogram.Record's publication order).
	// Zero, or a nil OnSnapshot, disables snapshots. The callback runs on
	// a goroutine of its own while the run is in flight; it must not block
	// for long and must not touch the kernel.
	SnapshotEvery time.Duration
	OnSnapshot    func(*Result)
}

// normalize fills defaults and validates; it mutates the (caller-copied)
// config so the Result reports the effective parameters.
func (cfg *Config) normalize() error {
	if _, ok := solutions.ByMechanism(cfg.Mechanism); !ok {
		return fmt.Errorf("load: unknown mechanism %q", cfg.Mechanism)
	}
	if cfg.Arrival.Open() {
		if cfg.RatePerSec == 0 {
			cfg.RatePerSec = 1000
		}
		if cfg.RatePerSec < 0 {
			return fmt.Errorf("load: negative rate %v", cfg.RatePerSec)
		}
		if cfg.Arrival == ArrivalBurst {
			if cfg.BurstSize == 0 {
				cfg.BurstSize = 8
			}
			if cfg.BurstSize < 2 {
				return fmt.Errorf("load: burst size %d < 2", cfg.BurstSize)
			}
		}
	} else {
		if cfg.Clients == 0 {
			cfg.Clients = 4
		}
		if cfg.Clients < 0 {
			return fmt.Errorf("load: negative client count %d", cfg.Clients)
		}
		if cfg.ThinkTicks < 0 {
			return fmt.Errorf("load: negative think time %d", cfg.ThinkTicks)
		}
	}
	if cfg.Duration < 0 || cfg.MaxOps < 0 {
		return fmt.Errorf("load: negative duration or op cap")
	}
	if cfg.Duration == 0 && cfg.MaxOps == 0 {
		cfg.Duration = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ReadFraction == 0 {
		cfg.ReadFraction = 0.9
	}
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return fmt.Errorf("load: read fraction %v outside [0,1]", cfg.ReadFraction)
	}
	if cfg.BufferCap == 0 {
		cfg.BufferCap = solutions.StdBufferCap
	}
	if cfg.BufferCap < 1 {
		return fmt.Errorf("load: buffer capacity %d < 1", cfg.BufferCap)
	}
	if cfg.WorkYields < 0 {
		return fmt.Errorf("load: negative work yields %d", cfg.WorkYields)
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = cfg.Duration + 30*time.Second
	}
	if cfg.DiurnalPeriod < 0 || cfg.SnapshotEvery < 0 {
		return fmt.Errorf("load: negative diurnal period or snapshot interval")
	}
	if cfg.DiurnalPeriod == 0 {
		cfg.DiurnalPeriod = time.Minute
	}
	return nil
}

// ClassResult is one operation class's measurements.
type ClassResult struct {
	Name      string
	Issued    int64
	Completed int64
	Wait      *Histogram // intended arrival → admission
	Total     *Histogram // intended arrival → completion
}

// Result is the outcome of one load run, or — when SnapshotSeq > 0 — an
// incremental soak snapshot of a run still in flight.
type Result struct {
	Config    Config
	ElapsedNs int64
	Issued    int64
	Completed int64
	Classes   []ClassResult

	// Lag is how late the open-loop generator spawned each arrival: the
	// spawn instant minus the intended instant, one observation per
	// issued operation. Nil for closed-loop runs.
	Lag *Histogram

	// SnapshotSeq is 0 for a final result and the 1-based snapshot index
	// for incremental results delivered via Config.OnSnapshot.
	SnapshotSeq int

	// ClientCompleted is the per-client completion count of a
	// closed-loop run (fairness between identical clients); JainIndex is
	// its Jain fairness index — 1.0 when every client completed equally.
	ClientCompleted []int64
	JainIndex       float64

	// KernelErr is the kernel's verdict, non-nil when the watchdog
	// expired before every issued operation drained (a lost wakeup or
	// deadlock in the mechanism under load).
	KernelErr error

	// Judged reports whether a trace was recorded and judged;
	// TraceEvents and Violations are its size and oracle findings.
	Judged      bool
	TraceEvents int
	Violations  []problems.Violation
}

// Throughput reports completed operations per second of elapsed run time.
func (r *Result) Throughput() float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.ElapsedNs) / 1e9)
}

// Failed reports whether the run found anything wrong — a kernel error
// or an oracle violation.
func (r *Result) Failed() bool { return r.KernelErr != nil || len(r.Violations) > 0 }

// Run executes one load run to completion and reports its measurements.
// The returned error covers configuration problems only; a failure of the
// system under load (watchdog expiry, oracle violation) is reported in
// the Result so its partial measurements stay observable.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	suite, _ := solutions.ByMechanism(cfg.Mechanism)

	k := kernel.NewReal(kernel.WithTick(kernelTick), kernel.WithWatchdog(cfg.Watchdog))
	// Abandon stragglers (and CSP server daemons) when done: their
	// goroutines unwind at their next Park instead of leaking.
	defer k.Close()

	var rec *trace.Recorder
	if cfg.Trace {
		rec = trace.NewRecorder(k)
	}
	w, err := buildWorkload(&cfg, suite, k, rec)
	if err != nil {
		return nil, err
	}

	eng := &engine{cfg: &cfg, k: k, w: w}
	eng.budget.Store(math.MaxInt64)
	if cfg.MaxOps > 0 {
		// Balanced workloads issue whole cycles only (a partial cycle —
		// say a deposit with no matching remove — can never drain), so the
		// effective budget rounds down to a cycle multiple; both loops then
		// make issued counts match it exactly (refund-and-stop below).
		if w.balanced {
			cfg.MaxOps -= cfg.MaxOps % int64(len(w.classes))
		}
		eng.budget.Store(cfg.MaxOps)
	}
	eng.deadlineNs = math.MaxInt64
	if cfg.Duration > 0 {
		eng.deadlineNs = cfg.Duration.Nanoseconds()
	}

	stopSnapshots := eng.startSnapshotter()
	if cfg.Arrival.Open() {
		eng.spawnGenerator()
	} else {
		eng.spawnClients()
	}
	kernelErr := k.Run()
	stopSnapshots() // no snapshot callbacks past this point

	res := eng.collect(kernelErr, 0)
	if rec != nil {
		if kernelErr == nil {
			// A daemon may still be recording for a finished client: the
			// csp synth server records a release's Exit after the
			// client's rendezvous has returned. Judge once every daemon
			// has reached its next Park.
			k.Quiesce()
		}
		tr := rec.Events()
		res.Judged = true
		res.TraceEvents = len(tr)
		res.Violations = w.judge(tr)
	}
	return res, nil
}

// collect assembles a Result from the engine's live counters. For the
// final result (snapshotSeq 0) everything has quiesced; for soak snapshots
// it runs concurrently with the clients, and the read order keeps the
// result self-consistent: a class's histograms are merged before its
// completed counter is read, and completed before issued, so
// hist-count <= completed-later-observed <= issued holds and the report
// validator's invariants are satisfied mid-run.
func (e *engine) collect(kernelErr error, snapshotSeq int) *Result {
	res := &Result{
		Config:      *e.cfg,
		ElapsedNs:   e.k.Now(),
		KernelErr:   kernelErr,
		SnapshotSeq: snapshotSeq,
	}
	if e.cfg.Arrival.Open() {
		// Before the classes: the generator counts an arrival issued
		// before it records its lag, so lag count <= issued holds.
		res.Lag = &Histogram{}
		res.Lag.Merge(&e.lag)
	}
	for _, c := range e.w.classes {
		cr := ClassResult{
			Name:  c.name,
			Wait:  c.wait.Merged(),
			Total: c.total.Merged(),
		}
		cr.Completed = c.completed.Load()
		cr.Issued = c.issued.Load()
		res.Issued += cr.Issued
		res.Completed += cr.Completed
		res.Classes = append(res.Classes, cr)
	}
	if !e.cfg.Arrival.Open() {
		for i := range e.clients {
			res.ClientCompleted = append(res.ClientCompleted, e.clients[i].completed.Load())
		}
		res.JainIndex = jain(res.ClientCompleted)
	}
	return res
}

// startSnapshotter starts the soak snapshotter, a goroutine outside the
// kernel: every SnapshotEvery it hands an incremental Result to
// OnSnapshot. The returned stop ends it and waits for a callback in
// progress, so none can interleave with the caller's post-run reporting.
func (e *engine) startSnapshotter() (stop func()) {
	cfg := e.cfg
	if cfg.SnapshotEvery <= 0 || cfg.OnSnapshot == nil {
		return func() {}
	}
	ticker := time.NewTicker(cfg.SnapshotEvery)
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for seq := 1; ; seq++ {
			select {
			case <-ticker.C:
			case <-quit:
				return
			}
			cfg.OnSnapshot(e.collect(nil, seq))
		}
	}()
	return func() {
		ticker.Stop()
		close(quit)
		<-exited
	}
}

// engine holds the shared issuing state of one run.
type engine struct {
	cfg        *Config
	k          *kernel.RealKernel
	w          *workload
	budget     atomic.Int64 // operations remaining to issue
	deadlineNs int64        // kernel-clock issue deadline
	opSeq      atomic.Int64
	clients    []clientState
	lag        Histogram // open loop: spawn instant minus intended instant
}

type clientState struct {
	completed atomic.Int64
}

// pickClass selects a class by weight with rng.
func (e *engine) pickClass(rng *rand.Rand) *class {
	cs := e.w.classes
	if len(cs) == 1 {
		return cs[0]
	}
	x := rng.Float64()
	var acc float64
	for _, c := range cs {
		acc += c.weight
		if x < acc {
			return c
		}
	}
	return cs[len(cs)-1]
}

// genBatchCycles is how many issuing cycles' worth of budget the open-loop
// generator claims per atomic operation: at >=10^6 arrivals/run the
// per-arrival budget CAS was measurable, and one claim per 64 cycles
// amortizes it to noise while the refund-and-stop keeps issued counts
// exact.
const genBatchCycles = 64

// Margins of the open-loop generator's wait for an arrival (waitUntil).
const (
	// coarseMargin is where the runtime sleep hands over: an idle
	// process's runtime timers fire up to a millisecond late, so they
	// cover only the part of a gap beyond this.
	coarseMargin = 2 * time.Millisecond
	// yieldWindow is where the OS sleep hands over to yielding.
	yieldWindow = 300 * time.Microsecond
)

// waitUntil returns at the kernel instant at, or at once if it has
// passed, in three steps: a runtime sleep through the part of the gap
// beyond coarseMargin, an OS sleep (sleepUntil) to yieldWindow before
// the instant, and yields through the rest. Runtime sleeps alone wake
// about half a millisecond late, which open-loop latency would then
// measure; yielding through whole gaps costs a CPU (twice the process
// CPU time at 2000 arrivals/s, DESIGN §8).
func (e *engine) waitUntil(gp *kernel.Proc, at int64) {
	now := e.k.Now()
	if gap := at - now - coarseMargin.Nanoseconds(); gap > 0 {
		gp.Sleep(gap / kernelTick.Nanoseconds())
		now = e.k.Now()
	}
	if until := at - yieldWindow.Nanoseconds(); now < until {
		// Yield first: the arrival just spawned is queued on this
		// thread's processor, and while the thread blocks in the OS it
		// would wait for an idle thread to wake and take it.
		gp.Yield()
		sleepUntil(gp, until)
		now = e.k.Now()
	}
	for now < at {
		gp.Yield()
		now = e.k.Now()
	}
}

// spawnGenerator issues open-loop traffic: a generator process walks the
// deterministic arrival schedule, waiting until each intended instant
// and spawning a fresh process per arrival. Arrivals never wait for
// earlier operations to finish — that is what makes the loop open.
//
// Deadline clamping is per arrival: each cycle's arrival instants are
// drawn before anything is issued, and a cycle whose last instant falls
// past the deadline is dropped whole (for weighted single-op cycles this
// is exact per-arrival clamping; balanced workloads cannot issue a
// partial cycle — the unmatched operations could never drain — so the
// straddling cycle is dropped entirely, and no arrival is ever issued
// past the deadline). Budget exhaustion refunds the unissued remainder
// instead of silently swallowing it, so issued totals equal the effective
// MaxOps exactly.
func (e *engine) spawnGenerator() {
	cfg := e.cfg
	e.k.Spawn("loadgen", func(gp *kernel.Proc) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		g := newGapper(cfg.Arrival, cfg.RatePerSec, cfg.BurstSize, cfg.DiurnalPeriod, rng)
		n := 1
		if e.w.balanced {
			n = len(e.w.classes)
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		cycleAt := make([]int64, n)
		next := int64(0)
		credits := int64(0) // budget claimed but not yet issued
		defer func() {
			if credits > 0 {
				e.budget.Add(credits)
			}
		}()
		for {
			// Draw the whole cycle first: every class once for balanced
			// workloads (in shuffled order, so the interleaving of
			// deposit/remove arrivals still varies), one weighted pick
			// otherwise.
			if e.w.balanced {
				rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			for i := 0; i < n; i++ {
				cycleAt[i] = next
				next += g.next()
			}
			if cycleAt[n-1] > e.deadlineNs {
				return
			}
			// Claim budget in batches; the generator is the run's only
			// consumer, so an overdraft refund leaves the remainder exact.
			if credits < int64(n) {
				claim := int64(n) * genBatchCycles
				if rem := e.budget.Add(-claim); rem < 0 {
					e.budget.Add(-rem) // refund the overdraft
					claim += rem
				}
				credits += claim
				if credits < int64(n) {
					// Budget cannot cover another full cycle; hand any
					// sub-cycle remainder back (only possible when MaxOps
					// was not cycle-aligned, which Run pre-rounds away for
					// balanced workloads).
					return
				}
			}
			credits -= int64(n)
			for i := 0; i < n; i++ {
				var c *class
				if e.w.balanced {
					c = e.w.classes[order[i]]
				} else {
					c = e.pickClass(rng)
				}
				at := cycleAt[i]
				// Wait for the intended instant; if the generator is
				// behind schedule it spawns immediately (the backlog is
				// charged to the operation's latency via at).
				e.waitUntil(gp, at)
				seq := e.opSeq.Add(1)
				c.issued.Add(1)
				e.lag.Record(e.k.Now() - at)
				e.k.Spawn(c.name, func(p *kernel.Proc) {
					c.do(p, at, seq)
					c.completed.Add(1)
				})
			}
		}
	})
}

// spawnClients issues closed-loop traffic: a fixed population, each
// client running one operation at a time with exponential think time.
// Balanced workloads issue whole cycles in fixed class order per client —
// fixed order makes the population deadlock-free (a client blocked in
// deposit has a personally balanced history, so all-blocked-in-deposit
// would imply an empty buffer, contradiction; symmetrically for remove).
func (e *engine) spawnClients() {
	cfg := e.cfg
	e.clients = make([]clientState, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		cl := &e.clients[i]
		clientSeed := cfg.Seed + int64(i)*7919
		e.k.Spawn("client", func(p *kernel.Proc) {
			rng := rand.New(rand.NewSource(clientSeed))
			for {
				if e.k.Now() >= e.deadlineNs {
					return
				}
				n := 1
				if e.w.balanced {
					n = len(e.w.classes)
				}
				if e.budget.Add(int64(-n)) < 0 {
					// Refund-and-stop: the budget cannot cover this cycle.
					// Every client claims whole cycles and Run pre-rounds
					// MaxOps to a cycle multiple, so after each loser's
					// refund the issued total matches the budget exactly
					// (the old behavior swallowed up to n-1 ops here).
					e.budget.Add(int64(n))
					return
				}
				if e.w.balanced {
					for _, c := range e.w.classes {
						e.runOne(c, p, cl)
					}
				} else {
					e.runOne(e.pickClass(rng), p, cl)
				}
				if cfg.ThinkTicks > 0 {
					p.Sleep(int64(rng.ExpFloat64() * float64(cfg.ThinkTicks)))
				}
			}
		})
	}
}

func (e *engine) runOne(c *class, p *kernel.Proc, cl *clientState) {
	at := e.k.Now()
	c.issued.Add(1)
	c.do(p, at, e.opSeq.Add(1))
	c.completed.Add(1)
	cl.completed.Add(1)
}

// jain is the Jain fairness index of the per-client completion counts:
// (Σx)² / (n·Σx²), 1.0 when all equal, →1/n under total starvation of
// all but one client.
func jain(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
