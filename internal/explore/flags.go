package explore

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"time"
)

// BindFlags registers the engine's command-line flags on fs, each writing
// into o: -workers, -prune, -dpor, -audit, -shrink and -progress. The
// current values of o are the flags' defaults. -progress installs
// ProgressLine over fs.Output() (stderr unless fs.SetOutput changed it).
// Budgets, step bounds and the streaming oracle stay with the caller,
// which knows its scenario.
func BindFlags(fs *flag.FlagSet, o *Options) {
	fs.IntVar(&o.Workers, "workers", o.Workers, "goroutines running random-phase schedules (0 = all cores; results are identical for any value)")
	fs.BoolVar(&o.Prune, "prune", o.Prune, "prune the DFS via kernel-state fingerprints (fewer schedules to a finding, so reported run counts shrink)")
	fs.BoolVar(&o.DPOR, "dpor", o.DPOR, "reduce the DFS by dynamic partial-order reduction (fewer schedules to the same findings; reports backtrack points and commuting siblings skipped)")
	fs.BoolVar(&o.Audit, "audit", o.Audit, "run the DFS budget again unreduced and fail if -prune or -dpor missed a violation rule (turns neither on)")
	fs.BoolVar(&o.Shrink, "shrink", o.Shrink, "minimize a finding's schedule by delta debugging (1-minimal)")
	fs.BoolFunc("progress", "print a one-line live exploration status to stderr", func(v string) error {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		o.Progress = nil
		if on {
			o.Progress = ProgressLine(fs.Output())
		}
		return nil
	})
}

// ProgressLine renders Stats snapshots as a single line overwritten in
// place on w, throttled to one render per 100ms so rendering never slows
// the hunt; the final snapshot ("done") always renders and ends the line.
func ProgressLine(w io.Writer) func(Stats) {
	var last time.Time
	return func(s Stats) {
		if s.Phase != "done" && time.Since(last) < 100*time.Millisecond {
			return
		}
		last = time.Now()
		fmt.Fprintf(w,
			"\rexplore: phase=%-8s runs=%-7d %6.0f/s pruned=%-6d frontier=%-4d shrink=%d(len %d) pool=%d/%d   ",
			s.Phase, s.Runs, s.RunsPerSec, s.Pruned, s.Frontier,
			s.ShrinkRuns, s.ShrinkLen, s.PoolReuses, s.PoolSlots)
		if s.Phase == "done" {
			fmt.Fprintln(w)
		}
	}
}
