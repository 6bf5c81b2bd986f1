package load

import (
	"fmt"
	"io"
	"time"
)

// The load report is the subsystem's interchange format: cmd/syncload
// emits it, cmd/benchjson ingests and archives it, CI uploads it. The
// schema is versioned and deterministic — struct-only (no maps), fixed
// field order — so reports diff cleanly across commits.

// SchemaVersion identifies the report layout. Bump on any breaking
// change; benchjson rejects reports from other versions.
const SchemaVersion = "repro-load/v1"

// Report is a set of load runs, typically one per mechanism × problem ×
// arrival pairing of a matrix sweep.
type Report struct {
	Schema string      `json:"schema"`
	Runs   []RunReport `json:"runs"`

	// Harness, when present, archives the measurement-harness calibration
	// (shared vs sharded histogram throughput) the runs were taken under —
	// the evidence that the harness itself was not the bottleneck.
	Harness *HarnessReport `json:"harness,omitempty"`
}

// NewReport returns an empty report at the current schema version.
func NewReport() *Report { return &Report{Schema: SchemaVersion} }

// RunReport is one load run: the effective configuration, aggregate
// results, and per-class measurements.
type RunReport struct {
	Mechanism string `json:"mechanism"`
	Problem   string `json:"problem"`
	Arrival   string `json:"arrival"`

	// SnapshotSeq is 0 for a final report and the 1-based index of an
	// incremental soak snapshot (ElapsedNs is then the snapshot instant).
	SnapshotSeq int `json:"snapshot_seq,omitempty"`

	RatePerSec   float64 `json:"rate_per_sec,omitempty"`
	BurstSize    int     `json:"burst_size,omitempty"`
	Clients      int     `json:"clients,omitempty"`
	ThinkTicks   int64   `json:"think_ticks,omitempty"`
	Seed         int64   `json:"seed"`
	ReadFraction float64 `json:"read_fraction,omitempty"`
	BufferCap    int     `json:"buffer_cap,omitempty"`
	WorkYields   int     `json:"work_yields,omitempty"`

	ElapsedNs        int64   `json:"elapsed_ns"`
	Issued           int64   `json:"issued"`
	Completed        int64   `json:"completed"`
	ThroughputOpsSec float64 `json:"throughput_ops_sec"`

	Classes []ClassReport `json:"classes"`

	// Lag is how late the open-loop generator spawned each arrival
	// (spawn instant minus intended instant); absent for closed loop.
	Lag *LatencySummary `json:"lag,omitempty"`

	// Closed-loop fairness between identical clients.
	ClientCompleted []int64 `json:"client_completed,omitempty"`
	JainIndex       float64 `json:"jain_index,omitempty"`

	// KernelError is set when the run's watchdog expired before all
	// issued operations drained.
	KernelError string `json:"kernel_error,omitempty"`

	// Judged reports whether the run was traced and oracle-checked;
	// Violations holds the findings (rendered), empty when clean.
	Judged      bool     `json:"judged"`
	TraceEvents int      `json:"trace_events,omitempty"`
	Violations  []string `json:"violations,omitempty"`
}

// ClassReport is one operation class's share and latency.
type ClassReport struct {
	Name      string `json:"name"`
	Issued    int64  `json:"issued"`
	Completed int64  `json:"completed"`
	// CompletedShare is this class's fraction of all completed
	// operations in the run — the fairness axis: under a reader flood, a
	// starving writer class shows a completed share far below its issued
	// share.
	CompletedShare float64 `json:"completed_share"`
	IssuedShare    float64 `json:"issued_share"`

	Wait  LatencySummary `json:"wait"`  // intended arrival → admission
	Total LatencySummary `json:"total"` // intended arrival → completion
}

// LatencySummary is the exported form of a Histogram: headline quantiles
// plus the non-zero buckets, so downstream tooling can validate the
// quantiles against the raw counts and re-aggregate across runs.
type LatencySummary struct {
	Count  int64         `json:"count"`
	P50Ns  int64         `json:"p50_ns"`
	P90Ns  int64         `json:"p90_ns"`
	P99Ns  int64         `json:"p99_ns"`
	MaxNs  int64         `json:"max_ns"`
	MeanNs float64       `json:"mean_ns"`
	Bucket []BucketCount `json:"buckets,omitempty"`
}

// Summarize exports a histogram.
func Summarize(h *Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		MaxNs:  h.Max(),
		MeanNs: h.Mean(),
		Bucket: h.NonZeroBuckets(),
	}
}

// Report converts a run result to its interchange form.
func (r *Result) Report() RunReport {
	cfg := &r.Config
	rr := RunReport{
		Mechanism:        cfg.Mechanism,
		Problem:          cfg.Problem,
		Arrival:          cfg.Arrival.String(),
		SnapshotSeq:      r.SnapshotSeq,
		Seed:             cfg.Seed,
		WorkYields:       cfg.WorkYields,
		ElapsedNs:        r.ElapsedNs,
		Issued:           r.Issued,
		Completed:        r.Completed,
		ThroughputOpsSec: r.Throughput(),
		ClientCompleted:  r.ClientCompleted,
		JainIndex:        r.JainIndex,
		Judged:           r.Judged,
		TraceEvents:      r.TraceEvents,
	}
	if cfg.Arrival.Open() {
		rr.RatePerSec = cfg.RatePerSec
		if cfg.Arrival == ArrivalBurst {
			rr.BurstSize = cfg.BurstSize
		}
	} else {
		rr.Clients = cfg.Clients
		rr.ThinkTicks = cfg.ThinkTicks
	}
	switch cfg.Problem {
	case "bounded-buffer":
		rr.BufferCap = cfg.BufferCap
	case "readers-priority", "writers-priority", "fcfs-rw":
		rr.ReadFraction = cfg.ReadFraction
	}
	if r.KernelErr != nil {
		rr.KernelError = r.KernelErr.Error()
	}
	if r.Lag != nil {
		lag := Summarize(r.Lag)
		rr.Lag = &lag
	}
	for _, c := range r.Classes {
		cr := ClassReport{
			Name:      c.Name,
			Issued:    c.Issued,
			Completed: c.Completed,
			Wait:      Summarize(c.Wait),
			Total:     Summarize(c.Total),
		}
		if r.Completed > 0 {
			cr.CompletedShare = float64(c.Completed) / float64(r.Completed)
		}
		if r.Issued > 0 {
			cr.IssuedShare = float64(c.Issued) / float64(r.Issued)
		}
		rr.Classes = append(rr.Classes, cr)
	}
	for _, v := range r.Violations {
		rr.Violations = append(rr.Violations, v.String())
	}
	return rr
}

// Validate checks a report's internal consistency and returns the first
// problem found as an error whose message carries the JSON path of the
// offending field (e.g. "runs[1].classes[0].wait: ..."). It is shared by
// cmd/syncload (sanity-check before emitting) and cmd/benchjson
// (reject malformed input before archiving).
func (rep *Report) Validate() error {
	if rep.Schema != SchemaVersion {
		return fmt.Errorf("schema: got %q, want %q", rep.Schema, SchemaVersion)
	}
	if len(rep.Runs) == 0 {
		return fmt.Errorf("runs: report has no runs")
	}
	for i := range rep.Runs {
		if err := rep.Runs[i].validate(); err != nil {
			return fmt.Errorf("runs[%d].%w", i, err)
		}
	}
	if rep.Harness != nil {
		if err := rep.Harness.validate(); err != nil {
			return fmt.Errorf("harness.%w", err)
		}
	}
	return nil
}

// HarnessReport archives the measurement-harness calibration recorded by
// CalibrateHistograms alongside the runs it accompanied: how fast the
// shared and sharded histograms absorb Record calls on this machine, and
// hence how much headroom the harness has over the offered load. Archived
// so a regression in recorded throughput is distinguishable from a
// regression in the mechanisms under test.
type HarnessReport struct {
	Cores                int     `json:"cores"`
	HistShards           int     `json:"hist_shards"`
	SharedRecordsPerSec  float64 `json:"shared_records_per_sec"`
	ShardedRecordsPerSec float64 `json:"sharded_records_per_sec"`
	// Speedup = sharded/shared. On one core it hovers near 1 (sharding
	// buys nothing without parallel writers); the >= 5x acceptance claim
	// applies at 8+ cores.
	Speedup float64 `json:"speedup"`
}

func (h *HarnessReport) validate() error {
	if h.Cores < 1 {
		return fmt.Errorf("cores: %d, want >= 1", h.Cores)
	}
	if h.HistShards < 1 {
		return fmt.Errorf("hist_shards: %d, want >= 1", h.HistShards)
	}
	if h.SharedRecordsPerSec < 0 || h.ShardedRecordsPerSec < 0 {
		return fmt.Errorf("records_per_sec: negative rate")
	}
	if h.Speedup < 0 {
		return fmt.Errorf("speedup: negative")
	}
	return nil
}

func (rr *RunReport) validate() error {
	if rr.Mechanism == "" {
		return fmt.Errorf("mechanism: empty")
	}
	if rr.Problem == "" {
		return fmt.Errorf("problem: empty")
	}
	arrival, err := ParseArrival(rr.Arrival)
	if err != nil {
		return fmt.Errorf("arrival: %v", err)
	}
	if rr.Issued < 0 || rr.Completed < 0 || rr.Completed > rr.Issued {
		return fmt.Errorf("completed: %d completed vs %d issued", rr.Completed, rr.Issued)
	}
	if rr.ElapsedNs < 0 {
		return fmt.Errorf("elapsed_ns: negative (%d)", rr.ElapsedNs)
	}
	if len(rr.Classes) == 0 {
		return fmt.Errorf("classes: empty")
	}
	var sum int64
	for j := range rr.Classes {
		c := &rr.Classes[j]
		if err := c.validate(); err != nil {
			return fmt.Errorf("classes[%d].%w", j, err)
		}
		// The load gate matches a run's classes by name.
		for _, prev := range rr.Classes[:j] {
			if prev.Name == c.Name {
				return fmt.Errorf("classes[%d].name: duplicate %q", j, c.Name)
			}
		}
		sum += c.Completed
	}
	if sum != rr.Completed {
		return fmt.Errorf("completed: run total %d but classes sum to %d", rr.Completed, sum)
	}
	if err := rr.validateLag(arrival); err != nil {
		return fmt.Errorf("lag: %w", err)
	}
	if rr.JainIndex < 0 || rr.JainIndex > 1.0000001 {
		return fmt.Errorf("jain_index: %v outside [0,1]", rr.JainIndex)
	}
	return nil
}

// validateLag checks the generator-lag histogram: closed loops have
// none, it holds at most one observation per issued arrival, and a final
// open-loop report holds exactly one. A run the watchdog cut (kernel
// error) is exempt from the last rule: its generator may have been
// between counting an arrival and recording its lag.
func (rr *RunReport) validateLag(arrival ArrivalKind) error {
	if !arrival.Open() {
		if rr.Lag != nil {
			return fmt.Errorf("present on a closed-loop run")
		}
		return nil
	}
	var lag LatencySummary
	if rr.Lag != nil {
		lag = *rr.Lag
		if err := lag.validate(rr.Issued); err != nil {
			return err
		}
	}
	if rr.SnapshotSeq == 0 && rr.KernelError == "" && lag.Count != rr.Issued {
		return fmt.Errorf("count %d, want one per issued arrival (%d)", lag.Count, rr.Issued)
	}
	return nil
}

func (c *ClassReport) validate() error {
	if c.Name == "" {
		return fmt.Errorf("name: empty")
	}
	if c.Issued < 0 || c.Completed < 0 || c.Completed > c.Issued {
		return fmt.Errorf("completed: %d completed vs %d issued", c.Completed, c.Issued)
	}
	if bad(c.CompletedShare) || bad(c.IssuedShare) {
		return fmt.Errorf("completed_share: shares must lie in [0,1]")
	}
	// Bound histogram sizes by issued, not completed: in a timed-out run
	// an in-flight operation may have recorded its wait latency before
	// its completion counter ticked.
	if err := c.Wait.validate(c.Issued); err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if err := c.Total.validate(c.Issued); err != nil {
		return fmt.Errorf("total: %w", err)
	}
	return nil
}

func bad(share float64) bool { return share < 0 || share > 1 }

// validate cross-checks a latency summary against its own buckets.
// issued is the class's issued-operation count; a histogram cannot hold
// more observations than operations that were issued.
func (s *LatencySummary) validate(issued int64) error {
	if s.Count < 0 {
		return fmt.Errorf("negative count %d", s.Count)
	}
	if s.Count > issued {
		return fmt.Errorf("count %d exceeds issued operations %d", s.Count, issued)
	}
	var sum uint64
	last := -1
	for _, b := range s.Bucket {
		if b.Index < 0 || b.Index >= NumBuckets() {
			return fmt.Errorf("bucket index %d outside [0,%d)", b.Index, NumBuckets())
		}
		if b.Index <= last {
			return fmt.Errorf("bucket indices not strictly ascending at index %d", b.Index)
		}
		if b.Count == 0 {
			return fmt.Errorf("bucket %d has zero count (must be omitted)", b.Index)
		}
		last = b.Index
		sum += b.Count
	}
	if sum != uint64(s.Count) {
		return fmt.Errorf("bucket counts sum to %d, count is %d", sum, s.Count)
	}
	if s.Count == 0 {
		if s.P50Ns != 0 || s.P90Ns != 0 || s.P99Ns != 0 || s.MaxNs != 0 || s.MeanNs != 0 {
			return fmt.Errorf("empty histogram with non-zero summary values")
		}
		return nil
	}
	if s.P50Ns < 0 {
		return fmt.Errorf("negative p50 %d", s.P50Ns)
	}
	if !(s.P50Ns <= s.P90Ns && s.P90Ns <= s.P99Ns && s.P99Ns <= s.MaxNs) {
		return fmt.Errorf("quantiles not monotone: p50=%d p90=%d p99=%d max=%d",
			s.P50Ns, s.P90Ns, s.P99Ns, s.MaxNs)
	}
	return nil
}

// Render writes a human-readable summary of the report.
func (rep *Report) Render(w io.Writer) {
	for i := range rep.Runs {
		rr := &rep.Runs[i]
		fmt.Fprintf(w, "%s/%s %s%s: %d/%d ops in %v, %.0f ops/s%s\n",
			rr.Mechanism, rr.Problem, rr.Arrival, trafficParams(rr),
			rr.Completed, rr.Issued, time.Duration(rr.ElapsedNs).Round(time.Millisecond),
			rr.ThroughputOpsSec, verdict(rr))
		if rr.Lag != nil {
			// Finer than ns: a punctual generator's lag p50 is under 1µs.
			lag := func(v int64) time.Duration { return time.Duration(v).Round(100 * time.Nanosecond) }
			fmt.Fprintf(w, "  generator lag p50=%v p99=%v max=%v\n",
				lag(rr.Lag.P50Ns), lag(rr.Lag.P99Ns), lag(rr.Lag.MaxNs))
		}
		for j := range rr.Classes {
			c := &rr.Classes[j]
			fmt.Fprintf(w, "  %-8s n=%-6d share=%.2f  wait p50=%v p99=%v max=%v  total p50=%v p99=%v\n",
				c.Name, c.Completed, c.CompletedShare,
				ns(c.Wait.P50Ns), ns(c.Wait.P99Ns), ns(c.Wait.MaxNs),
				ns(c.Total.P50Ns), ns(c.Total.P99Ns))
		}
		if len(rr.ClientCompleted) > 0 {
			fmt.Fprintf(w, "  clients=%d jain=%.3f\n", len(rr.ClientCompleted), rr.JainIndex)
		}
		for _, v := range rr.Violations {
			fmt.Fprintf(w, "  VIOLATION %s\n", v)
		}
	}
}

func trafficParams(rr *RunReport) string {
	if rr.Clients > 0 {
		return fmt.Sprintf(" clients=%d think=%d", rr.Clients, rr.ThinkTicks)
	}
	s := fmt.Sprintf(" rate=%g/s", rr.RatePerSec)
	if rr.BurstSize > 0 {
		s += fmt.Sprintf(" burst=%d", rr.BurstSize)
	}
	return s
}

func verdict(rr *RunReport) string {
	switch {
	case rr.KernelError != "":
		return ", KERNEL ERROR: " + rr.KernelError
	case !rr.Judged:
		return ""
	case len(rr.Violations) > 0:
		return fmt.Sprintf(", %d ORACLE VIOLATIONS", len(rr.Violations))
	default:
		return fmt.Sprintf(", oracle clean (%d events)", rr.TraceEvents)
	}
}

func ns(v int64) time.Duration { return time.Duration(v).Round(time.Microsecond) }
