package dispatch

import (
	"fmt"
	"io"
	"strings"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/registry"
)

// Local is the single-node evaluation session cmd/create-bench and
// cmd/create-characterize delegate to: the sharded cache open, the
// shard-directory merge, and the render loop all live here, so the CLIs
// carry no shard or merge logic of their own — the flags are parsed there,
// the semantics are decided here, and the same semantics back the
// distributed Coordinator.
type Local struct {
	Env   *experiments.Env
	Store *cache.Store
	// Shard/NumShards are the parsed -shard selection (0/0 = unsharded).
	Shard, NumShards int
}

// OpenLocal parses the -shard selector, opens (or creates) the cache
// behind cacheDir, and wires a fresh environment over it. Sharded
// sessions require a disk-backed cache: a shard's stdout is partial
// scaffolding, so without persistence its computed points would die with
// the process and nothing would merge. Disk entries are only read lazily
// on Get, so callers may still merge shard directories into cacheDir
// after this returns.
func OpenLocal(shardSel, cacheDir string) (*Local, error) {
	shard, numShards, err := experiments.ParseShard(shardSel)
	if err != nil {
		return nil, err
	}
	if numShards > 1 && cacheDir == "" {
		return nil, fmt.Errorf("-shard requires -cache-dir to persist the shard's points")
	}
	store, err := cache.New(cacheDir)
	if err != nil {
		return nil, fmt.Errorf("opening cache %s: %w", cacheDir, err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	return &Local{Env: env, Store: store, Shard: shard, NumShards: numShards}, nil
}

// MergeShardDirs unions shard cache directories into this session's cache
// directory (create-bench -merge), returning how many entries were
// copied. Content addressing makes the union the complete merge; a
// subsequent Run replays the merged points byte-identically to an
// unsharded run.
func (l *Local) MergeShardDirs(dirs ...string) (int, error) {
	if l.Store.Dir() == "" {
		return 0, fmt.Errorf("merging shard caches requires a cache directory as the destination")
	}
	return cache.MergeDirs(l.Store.Dir(), dirs...)
}

// LimitDisk arms the LRU disk cap at maxMB mebibytes (0 leaves the cache
// unbounded). Call after MergeShardDirs: the cap scans the directory, so
// merged-in entries are indexed and enforced over too.
func (l *Local) LimitDisk(maxMB int) error {
	if maxMB <= 0 {
		return nil
	}
	return l.Store.SetMaxBytes(int64(maxMB) << 20)
}

// Options assembles the session's evaluation options: the caller's scale
// plus this session's shard selection.
func (l *Local) Options(trials int, seed int64, workers int) experiments.Options {
	return experiments.Options{
		Trials: trials, Seed: seed, Workers: workers,
		Shard: l.Shard, NumShards: l.NumShards,
	}
}

// Selection resolves an -exp argument against the registry: "all" is every
// experiment in canonical order; anything else must be a registered name.
func Selection(exp string) ([]registry.Descriptor, error) {
	if exp == "all" {
		return registry.All(), nil
	}
	d, ok := registry.Lookup(exp)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (registered: %s, all)",
			exp, strings.Join(registry.Names(), ", "))
	}
	return []registry.Descriptor{d}, nil
}

// Run renders the selection against this session's environment — the
// single-node path create-bench prints, and the replay path the
// Coordinator reuses after its merge.
func (l *Local) Run(w io.Writer, sel []registry.Descriptor, opt experiments.Options, banner bool) {
	Render(w, l.Env, sel, opt, banner)
}

// RenderPlans prints the -plan view for the selection against this
// session's cache.
func (l *Local) RenderPlans(w io.Writer, sel []registry.Descriptor, opt experiments.Options) {
	RenderPlans(w, l.Env, opt, sel)
}
