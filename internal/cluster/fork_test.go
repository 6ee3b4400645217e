package cluster

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestClusterForkResume is the cluster half of the warm-fork gate: the
// shared prefix runs once locally, its serialized snapshot ships to a
// 2-worker fleet, and every divergent continuation resumed remotely is
// value-identical to the local warm run — and byte-identical across fleet
// sizes and client parallelism.
func TestClusterForkResume(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)

	cfg, err := serve.ConfigSpec{Partition: 4, Topology: "mesh", Policy: "ts"}.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.Prepare(cfg, core.ForkPoint{WarmJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := warm.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}

	divs := []core.Divergence{
		{},
		{SeedSet: true, Seed: 1},
		{SeedSet: true, Seed: 2},
		{BasicQuantum: 20 * sim.Millisecond},
		{BasicQuantum: 40 * sim.Millisecond},
		{SeedSet: true, Seed: 3, BasicQuantum: 30 * sim.Millisecond},
	}

	forkPlan := func(c *Coordinator) *engine.Plan[[]byte] {
		plan := engine.NewPlan[[]byte]("fork-resume")
		for _, div := range divs {
			pt, err := ForkConfigPoint(cfg, snapshot, div)
			if err != nil {
				t.Fatal(err)
			}
			plan.Add(pt.Label, func() ([]byte, error) { return c.Do(context.Background(), pt) })
		}
		return plan
	}

	two := New(Options{Workers: []string{w1.URL, w2.URL}, DisableHedging: true})
	bodies, errs := engine.ExecuteAll(forkPlan(two), engine.Options{Workers: 4})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("remote fork point %d: %v", i, err)
		}
	}

	// Remote continuations equal the local warm runs value-for-value.
	for i, div := range divs {
		res, err := warm.Run(div)
		if err != nil {
			t.Fatalf("local warm run %d: %v", i, err)
		}
		local := serve.PointSummaryFrom(res)
		got, err := serve.DecodePointSummary(bodies[i])
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if got != local {
			t.Errorf("point %d: remote resume != local warm run\n got: %+v\nwant: %+v", i, got, local)
		}
	}

	// Fleet-size invariance: a 1-worker fleet produces the same bytes.
	one := New(Options{Workers: []string{w1.URL}, DisableHedging: true})
	again, errs := engine.ExecuteAll(forkPlan(one), engine.Options{Workers: 1})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("1-worker fork point %d: %v", i, err)
		}
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i], again[i]) {
			t.Errorf("point %d differs between 2-worker and 1-worker fleets:\n got: %s\nwant: %s",
				i, bodies[i], again[i])
		}
	}

	// A t=0 snapshot resumed remotely equals a cold /v1/point of the same
	// config: the forked and unforked wire paths agree on the zero fork.
	zero, err := core.Prepare(cfg, core.ForkPoint{})
	if err != nil {
		t.Fatal(err)
	}
	zeroSnap, err := zero.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	forked, err := two.RunForked(context.Background(), cfg, zeroSnap, core.Divergence{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := two.RunConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if forked != cold {
		t.Errorf("t=0 remote fork != cold remote point\n got: %+v\nwant: %+v", forked, cold)
	}
}
