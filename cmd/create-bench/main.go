// Command create-bench regenerates the paper's tables and figures on the
// simulated substrate. Experiments are dispatched through the typed
// registry (internal/registry) — the same descriptors the create-serve
// daemon executes, so CLI output and served results are byte-identical.
// Select an experiment with -exp (or run everything):
//
//	create-bench -exp fig16 -trials 100 -workers 8
//
// Monte-Carlo trials and sweep grid points fan out over -workers goroutines
// (0 = one per core) with deterministic, order-preserving aggregation, so
// -workers only changes wall-clock time, never the printed numbers.
//
// Sweeps reuse identical grid points through a content-addressed Summary
// cache: always in-process, and across runs/machines when -cache-dir is
// set (-cache-max-mb caps the directory, evicting least-recently-used
// entries). -plan probes the cache without running anything and prints,
// per experiment, how many grid points are already resident versus still
// to compute. -shard k/n partitions every sweep grid by stable row index
// (this process computes only its own rows; the printed output is partial
// scaffolding), and -merge unions shard cache directories into
// -cache-dir before running, so a merged replay reproduces the unsharded
// output byte for byte:
//
//	create-bench -exp all -trials 8 -shard 2/3 -cache-dir out   # one of 3 shards
//	create-bench -exp all -trials 8 -merge s1,s2,s3 -cache-dir merged
//
// The shard/merge semantics live in internal/dispatch (shared with the
// distributed coordinator, cmd/create-coordinator); this command is a
// thin client of that package.
//
// Experiment identifiers follow the paper: fig1, fig4, fig5, fig6, fig7,
// fig8, fig9, fig10, fig12, fig13, fig14, fig15, fig16, fig17, fig18,
// fig19, fig20, fig21, table2, table3, table4, table5, table6.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/embodiedai/create/internal/dispatch"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig1..fig21, table2..table6, all)")
	trials := flag.Int("trials", 48, "episode repetitions per data point")
	seed := flag.Int64("seed", 2026, "base random seed")
	workers := flag.Int("workers", 0, "parallel workers (0 = all cores, 1 = serial); results are identical either way")
	shardSel := flag.String("shard", "", "compute only sweep grid points of shard k/n (1-based, e.g. 2/3); output is partial until merged")
	cacheDir := flag.String("cache-dir", "", "persist the content-addressed summary cache to this directory (empty = in-memory only)")
	cacheMaxMB := flag.Int("cache-max-mb", 0, "cap the disk cache at this many MiB, evicting least-recently-used entries (0 = unbounded)")
	merge := flag.String("merge", "", "comma-separated shard cache dirs to union into -cache-dir before running")
	plan := flag.Bool("plan", false, "plan only: probe the cache and print per-experiment points to compute, without running")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
	flag.Parse()

	l, err := dispatch.OpenLocal(*shardSel, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *merge != "" {
		n, err := l.MergeShardDirs(strings.Split(*merge, ",")...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "merging shard caches: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "merged %d cache entries into %s\n", n, *cacheDir)
	}
	// Arm the size cap after any merge: the cap scans the directory, so
	// merged-in entries are indexed and the cap is enforced over them too.
	if err := l.LimitDisk(*cacheMaxMB); err != nil {
		fmt.Fprintf(os.Stderr, "arming cache size cap: %v\n", err)
		os.Exit(1)
	}

	selection, err := dispatch.Selection(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := l.Options(*trials, *seed, *workers)

	// Profiling hooks: future hot-path work starts from a profile of the
	// real sweep, not a guess (see PERFORMANCE.md for the workflow). Armed
	// only now — past every setup error that os.Exits — so an aborted run
	// cannot leave a truncated, trailer-less profile behind.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating cpu profile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting cpu profile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle retained heap before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing mem profile: %v\n", err)
			}
		}()
	}

	if *plan {
		l.RenderPlans(os.Stdout, selection, opt)
		return
	}

	defer func() {
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d points resident\n",
			l.Store.Hits(), l.Store.Misses(), l.Store.Len())
	}()
	l.Run(os.Stdout, selection, opt, *exp == "all")
}
