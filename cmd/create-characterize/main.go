// Command create-characterize runs the Sec. 4 resilience characterization:
// planner/controller BER sweeps, per-component severities, activation
// profiles, subtask diversity, and stage-specific dynamics. It dispatches
// the characterization figures (fig5, fig6, fig7) through the same typed
// registry as create-bench and create-serve, sharing their content-
// addressed cache entries.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/embodiedai/create/internal/dispatch"
)

// characterizationSet is the Sec. 4 slice of the registry.
var characterizationSet = []string{"fig5", "fig6", "fig7"}

func main() {
	trials := flag.Int("trials", 48, "episode repetitions per data point")
	seed := flag.Int64("seed", 2026, "base random seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = all cores, 1 = serial)")
	shardSel := flag.String("shard", "", "compute only sweep grid points of shard k/n (1-based, e.g. 2/3); output is partial until merged")
	cacheDir := flag.String("cache-dir", "", "persist the content-addressed summary cache to this directory (empty = in-memory only)")
	cacheMaxMB := flag.Int("cache-max-mb", 0, "cap the disk cache at this many MiB, evicting least-recently-used entries (0 = unbounded)")
	flag.Parse()

	l, err := dispatch.OpenLocal(*shardSel, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := l.LimitDisk(*cacheMaxMB); err != nil {
		fmt.Fprintf(os.Stderr, "arming cache size cap: %v\n", err)
		os.Exit(1)
	}
	opt := l.Options(*trials, *seed, *workers)

	for i, name := range characterizationSet {
		sel, err := dispatch.Selection(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if i > 0 {
			fmt.Println()
		}
		l.Run(os.Stdout, sel, opt, false)
	}
}
