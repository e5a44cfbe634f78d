package registry

import (
	"bytes"
	"strings"
	"testing"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
)

func testOptions() experiments.Options { return experiments.Options{Trials: 3, Seed: 2026} }

func TestRegistryCoversEveryExperiment(t *testing.T) {
	names := Names()
	if len(names) != 23 {
		t.Fatalf("registry lists %d experiments, want 23 (fig1..fig21 + table2..table6)", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate registration %q", n)
		}
		seen[n] = true
		d, ok := Lookup(n)
		if !ok || d.Name != n {
			t.Fatalf("Lookup(%q) failed", n)
		}
		if d.Run == nil || d.Title == "" {
			t.Fatalf("%s: incomplete descriptor", n)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup invented an experiment")
	}
}

// TestPointsEnumerationMatchesRuns is the anti-drift gate between the
// runners and the planning enumerators: for every experiment with a cached
// grid, running against a fresh store must (a) compute each unique point at
// most once, (b) leave every computed point inside the enumerated set, and
// (c) for static grids, compute exactly the enumerated set. A divergence
// here means a runner's config and its fingerprint were edited apart.
func TestPointsEnumerationMatchesRuns(t *testing.T) {
	opt := testOptions()
	// fig5/fig7 are skipped only for their uncached panels' runtime (their
	// cached sweeps are the same job builders fig1/fig6 exercise); fig18
	// shares fig17's point set by construction.
	for _, name := range []string{"fig1", "fig6", "fig13", "fig15", "fig16", "fig17", "fig19", "fig20", "table6"} {
		name := name
		t.Run(name, func(t *testing.T) {
			d, ok := Lookup(name)
			if !ok || d.Points == nil {
				t.Fatalf("%s: no cached grid registered", name)
			}
			e := experiments.NewEnv()
			store, err := cache.New("")
			if err != nil {
				t.Fatal(err)
			}
			e.Cache = store

			d.Run(e, opt)
			if got, want := store.Misses(), int64(store.Len()); got != want {
				t.Fatalf("%d misses for %d unique points: some point was computed twice", got, want)
			}

			pts := d.Points(e, opt)
			unique := map[string]bool{}
			resident := 0
			for _, p := range pts {
				key := p.Key()
				if unique[key] {
					continue
				}
				unique[key] = true
				if store.Contains(p) {
					resident++
				}
			}
			// Every resident point is enumerated (computed set is a subset
			// of the enumeration)...
			if resident != store.Len() {
				t.Fatalf("run computed %d points but only %d are enumerated: the enumerator is missing configs",
					store.Len(), resident)
			}
			// ...and static grids are enumerated exactly.
			if !d.Dynamic && len(unique) != store.Len() {
				t.Fatalf("static grid enumerates %d points but the run computed %d", len(unique), store.Len())
			}
		})
	}
}

// TestShardedEnumerationPartitionsTheGrid: for every experiment with a
// cached grid, the per-shard enumerations union to exactly the unsharded
// enumeration — so a sharded job's plan counts only its own points, and
// the shards' plans jointly cover the figure. Pure enumeration, no runs.
func TestShardedEnumerationPartitionsTheGrid(t *testing.T) {
	opt := testOptions()
	const numShards = 3
	e := experiments.NewEnv()
	for _, d := range All() {
		if d.Points == nil {
			continue
		}
		full := map[string]bool{}
		for _, p := range d.Points(e, opt) {
			full[p.Key()] = true
		}
		union := map[string]bool{}
		for k := 0; k < numShards; k++ {
			so := opt
			so.Shard, so.NumShards = k, numShards
			for _, p := range d.Points(e, so) {
				key := p.Key()
				if !full[key] {
					t.Fatalf("%s: shard %d enumerated a point outside the unsharded grid", d.Name, k)
				}
				union[key] = true
			}
		}
		if len(union) != len(full) {
			t.Fatalf("%s: shards enumerate %d of %d unique points", d.Name, len(union), len(full))
		}
	}
}

// TestShardedPlanMatchesShardedRun: every static, fully cached grid
// shards (shard 2/3 plans only part of the grid), a sharded run computes
// exactly its shard's enumerated points, so the surfaced plan and the
// job's cache accounting agree, and a replay of the same shard plans as
// free. (fig5 and fig7 have uncached panels, so they never plan free;
// their cached sweeps are fig1's and fig6's builders.)
func TestShardedPlanMatchesShardedRun(t *testing.T) {
	full := testOptions()
	opt := full
	opt.Shard, opt.NumShards = 1, 3
	for _, d := range All() {
		if d.Points == nil || d.Dynamic || d.Uncached {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			e := experiments.NewEnv()
			store, _ := cache.New("")
			e.Cache = store

			plan := PlanFor(d, e, opt)
			if whole := PlanFor(d, e, full); plan.GridPoints >= whole.GridPoints {
				t.Fatalf("shard plans %d of the grid's %d points: the grid does not shard",
					plan.GridPoints, whole.GridPoints)
			}
			d.Run(e, opt)
			if int(store.Misses()) != plan.ToCompute {
				t.Fatalf("shard plan predicted %d points, run computed %d", plan.ToCompute, store.Misses())
			}
			if warm := PlanFor(d, e, opt); !warm.Free() {
				t.Fatalf("sharded replay should plan free: %+v", warm)
			}
		})
	}
}

// TestPlanPredictsRun: an empty store plans everything as to-compute; after
// the run the same plan reports the figure as free, and a replay driven by
// that prediction recomputes nothing.
func TestPlanPredictsRun(t *testing.T) {
	opt := testOptions()
	d, _ := Lookup("fig19")
	e := experiments.NewEnv()
	store, _ := cache.New("")
	e.Cache = store

	cold := PlanFor(d, e, opt)
	if cold.GridPoints == 0 || cold.ToCompute != cold.GridPoints || cold.Cached != 0 {
		t.Fatalf("cold plan implausible: %+v", cold)
	}
	if cold.Free() {
		t.Fatal("cold plan cannot be free")
	}
	// Planning must not perturb accounting.
	if store.Hits() != 0 || store.Misses() != 0 {
		t.Fatalf("planning touched accounting: %d/%d", store.Hits(), store.Misses())
	}

	d.Run(e, opt)
	warm := PlanFor(d, e, opt)
	if warm.ToCompute != 0 || warm.Cached != warm.GridPoints || !warm.Free() {
		t.Fatalf("warm plan should be free: %+v", warm)
	}

	// Uncached experiments are never free, even with no grid to compute.
	d5, _ := Lookup("table5")
	if p := PlanFor(d5, e, opt); p.Free() {
		t.Fatalf("uncached experiment planned as free: %+v", p)
	}
}

// TestRenderIsDeterministic: a Result renders the same bytes every time —
// the property the service relies on to serve cached renders.
func TestRenderIsDeterministic(t *testing.T) {
	opt := testOptions()
	d, _ := Lookup("fig15")
	e := experiments.NewEnv()
	store, _ := cache.New("")
	e.Cache = store
	res := d.Run(e, opt)

	var a, b bytes.Buffer
	res.Render(&a)
	res.Render(&b)
	if a.Len() == 0 {
		t.Fatal("renderer produced nothing")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("re-rendering a Result changed its bytes")
	}
	if !strings.Contains(a.String(), "Fig 15") {
		t.Fatalf("unexpected render: %q", a.String())
	}

	// A second Run served from cache renders byte-identically.
	res2 := d.Run(e, opt)
	var c bytes.Buffer
	res2.Render(&c)
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("cache-served run rendered different bytes")
	}
}

// TestShardPlanForKeyManifest: the key manifest ShardPlanFor returns is
// the plan itself in address form — one key per counted grid point, and
// the per-shard manifests union to exactly the unsharded manifest. This
// is the contract the dispatch tier ships between coordinator and
// workers.
func TestShardPlanForKeyManifest(t *testing.T) {
	opt := testOptions()
	e := experiments.NewEnv()
	const numShards = 3
	for _, name := range []string{"fig16", "fig19", "table6"} {
		d, _ := Lookup(name)
		full, fullKeys := ShardPlanFor(d, e, opt)
		if len(fullKeys) != full.GridPoints {
			t.Fatalf("%s: %d keys for %d grid points", name, len(fullKeys), full.GridPoints)
		}
		fullSet := map[string]bool{}
		for _, k := range fullKeys {
			if fullSet[k] {
				t.Fatalf("%s: duplicate key in manifest", name)
			}
			fullSet[k] = true
		}
		union := map[string]bool{}
		for k := 0; k < numShards; k++ {
			so := opt
			so.Shard, so.NumShards = k, numShards
			p, keys := ShardPlanFor(d, e, so)
			if len(keys) != p.GridPoints {
				t.Fatalf("%s shard %d: %d keys for %d grid points", name, k, len(keys), p.GridPoints)
			}
			for _, key := range keys {
				if !fullSet[key] {
					t.Fatalf("%s shard %d: key outside the unsharded manifest", name, k)
				}
				union[key] = true
			}
		}
		if len(union) != len(fullSet) {
			t.Fatalf("%s: shard manifests cover %d of %d keys", name, len(union), len(fullSet))
		}
	}
}
