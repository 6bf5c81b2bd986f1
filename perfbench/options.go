package main

import "repro/internal/explore"

// The exploration options of each workload, in one place. Each copies the
// flags of the tool the workload stands for, so when an option is retired
// from the engine exactly one line here changes.

// fuzzOptions is `syncfuzz` at its defaults: 150 random and 100 DFS
// schedules per cell, with pruning, partial-order reduction,
// checkpointing, pooling and shrinking on.
func fuzzOptions() explore.Options {
	return explore.Options{
		RandomRuns: 150,
		DFSRuns:    100,
		Prune:      true,
		DPOR:       true,
		Checkpoint: true,
		Pool:       true,
		Shrink:     true,
	}
}

// huntOptions is `simtrace -explore -dpor -checkpoint -pool -prune -shrink`
// restricted to DFS (no random phase) with a DFS budget of dfsRuns. As in
// simtrace, pooled hunts judge readers/writers priority with the streaming
// oracle; the cell supplies it.
func huntOptions(dfsRuns int) explore.Options {
	return explore.Options{
		RandomRuns: -1,
		DFSRuns:    dfsRuns,
		Prune:      true,
		DPOR:       true,
		Checkpoint: true,
		Pool:       true,
		Shrink:     true,
	}
}
