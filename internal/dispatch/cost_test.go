package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/embodiedai/create/internal/cache"
	"github.com/embodiedai/create/internal/experiments"
	"github.com/embodiedai/create/internal/registry"
)

// TestPlanShardsCostedDeterministic: the same environment and cost table
// always produce the same plan, the cost fields are the point counts scaled
// by the table, and a nil table yields the same plan with every cost zero
// (cost fields are omitempty, so they vanish from the marshaled plan).
func TestPlanShardsCostedDeterministic(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19", "fig15")
	env := experiments.NewEnv()
	store, err := cache.New("")
	if err != nil {
		t.Fatal(err)
	}
	env.Cache = store

	costs := registry.NewCostTable()
	costs.Observe("fig19", 10, 25)  // 2.5 s/point
	costs.Observe("fig15", 100, 10) // 0.1 s/point

	a := PlanShards(env, sel, opt, 3, costs)
	b := PlanShards(env, sel, opt, 3, costs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical inputs produced different plans")
	}
	for _, w := range a.Shards {
		var want float64
		for _, j := range w.Jobs {
			cost := costs.PointCost(j.Experiment) * float64(j.ToCompute)
			if j.CostSeconds != cost {
				t.Fatalf("job %s cost %v, want %v", j.Experiment, j.CostSeconds, cost)
			}
			want += cost
		}
		if w.CostSeconds != want {
			t.Fatalf("shard %s cost %v, want sum %v", w.Selector, w.CostSeconds, want)
		}
	}

	// A nil table is the uncosted plan: it differs from the costed one in
	// the cost fields alone, so costs never move shard membership.
	plain := PlanShards(env, sel, opt, 3, nil)
	for i := range a.Shards {
		a.Shards[i].CostSeconds = 0
		for k := range a.Shards[i].Jobs {
			a.Shards[i].Jobs[k].CostSeconds = 0
		}
	}
	if !reflect.DeepEqual(a, plain) {
		t.Fatal("the cost table changed more than the plan's cost fields")
	}
	uncosted, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(uncosted, []byte("cost_seconds")) {
		t.Fatalf("nil cost table marshaled cost fields: %s", uncosted)
	}
}

// TestCoordinatorCostWeightedByteIdentical: a heavily skewed cost table
// reorders scheduling only — the merged replay stays byte-identical to the
// single-node run, and the runners fold their measured timings back into
// the shared table.
func TestCoordinatorCostWeightedByteIdentical(t *testing.T) {
	opt := testOptions()
	sel := selection(t, "fig19", "fig15")
	want := singleNode(t, sel, opt)

	costs := registry.NewCostTable()
	// Deliberately wrong weights: cost-aware scheduling must never be able
	// to change results, only order.
	costs.Observe("fig19", 1, 3600)
	costs.Observe("fig15", 1000, 1)

	store, err := cache.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnv()
	env.Cache = store
	coord := &Coordinator{
		Env: env, Store: store,
		Runners: []Runner{
			&LocalRunner{Env: env, Workers: 2, Name: "l1", Costs: costs},
			&LocalRunner{Env: env, Workers: 2, Name: "l2", Costs: costs},
		},
		Costs: costs,
	}
	var got bytes.Buffer
	if _, err := coord.Run(context.Background(), &got, sel, opt, 4, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("cost-weighted run diverged from single-node:\n--- costed ---\n%s\n--- single ---\n%s", got.Bytes(), want)
	}
	// The feedback loop observed real timings on top of the seeds.
	if len(costs.Experiments()) != 2 {
		t.Fatalf("cost table experiments = %v", costs.Experiments())
	}
}

// TestExecuteCostOrder: the scheduler dispatches by predicted cost when the
// plan carries one, falling back to point counts otherwise.
func TestExecuteCostOrder(t *testing.T) {
	plan := ShardPlan{
		NumShards: 3,
		Shards: []ShardWork{
			{Index: 0, Selector: "1/3", ToCompute: 10, CostSeconds: 1},
			{Index: 1, Selector: "2/3", ToCompute: 1, CostSeconds: 100},
			{Index: 2, Selector: "3/3", ToCompute: 5, CostSeconds: 10},
		},
	}
	rec := &orderRunner{}
	c := &Coordinator{
		Env: experiments.NewEnv(), Runners: []Runner{rec},
	}
	if err := c.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 0}; !reflect.DeepEqual(rec.order, want) {
		t.Fatalf("cost-weighted dispatch order %v, want %v", rec.order, want)
	}

	// Without costs the same shards order by raw ToCompute.
	for i := range plan.Shards {
		plan.Shards[i].CostSeconds = 0
	}
	rec2 := &orderRunner{}
	c2 := &Coordinator{Env: experiments.NewEnv(), Runners: []Runner{rec2}}
	if err := c2.Execute(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 1}; !reflect.DeepEqual(rec2.order, want) {
		t.Fatalf("point-count dispatch order %v, want %v", rec2.order, want)
	}
}

// orderRunner records the shard order it was handed without computing.
type orderRunner struct {
	order []int
}

func (r *orderRunner) Label() string { return "order" }
func (r *orderRunner) RunShard(_ context.Context, _ ShardPlan, shard int) (string, error) {
	r.order = append(r.order, shard)
	return "", nil
}
