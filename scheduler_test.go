package hgw_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hgw"
)

// poolIDs mixes three shared-testbed experiments with a Standalone
// one, so an inventory run has both kinds of unit.
var poolIDs = []string{"udp1", "icmp", "dns", "tcp2"}

// poolShared counts poolIDs' shared-testbed experiments.
const poolShared = 3

func poolOpts(parallelism, procs int, extra ...hgw.Option) []hgw.Option {
	return append([]hgw.Option{
		hgw.WithSeed(5), hgw.WithTags("je", "ls1", "owrt"),
		hgw.WithIterations(1), hgw.WithTransferBytes(64 << 10),
		hgw.WithParallelism(parallelism), hgw.WithMaxProcs(procs),
	}, extra...)
}

// TestInventoryWorkerCountInvariance is the one-pool contract for
// inventory runs: parallelism is the lane partition and part of the
// output, maxProcs is only the worker count. For each lane count, the
// render and the canonical run report must be byte-identical at
// maxProcs 1, 2 and NumCPU, and the run builds one testbed per lane,
// min(parallelism, shared experiments), whatever the worker count.
func TestInventoryWorkerCountInvariance(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		var baseRender, baseCanon string
		for _, procs := range []int{1, 2, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("parallelism=%d/maxprocs=%d", par, procs), func(t *testing.T) {
				var rep *hgw.RunReport
				r := hgw.NewRunner(poolOpts(par, procs, hgw.WithRunReport(func(got *hgw.RunReport) { rep = got }))...)
				results, err := r.Run(context.Background(), poolIDs)
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != len(poolIDs) {
					t.Fatalf("%d results, want %d", len(results), len(poolIDs))
				}
				if rep == nil {
					t.Fatal("no run report delivered")
				}
				lanes := min(par, poolShared)
				if got := r.TestbedsBuilt(); got != lanes {
					t.Errorf("TestbedsBuilt = %d, want min(parallelism, shared experiments) = %d", got, lanes)
				}
				if len(rep.Shards) != lanes {
					t.Errorf("report has %d lane sections, want %d", len(rep.Shards), lanes)
				}
				render, canon := results.Render(), rep.Canonical()
				if baseRender == "" {
					baseRender, baseCanon = render, canon
					return
				}
				if render != baseRender {
					t.Errorf("render at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s", procs, render, baseRender)
				}
				if canon != baseCanon {
					t.Errorf("canonical report at maxProcs=%d differs from maxProcs=1\n--- got ---\n%s\n--- want ---\n%s", procs, canon, baseCanon)
				}
			})
		}
	}
}

// TestInventoryOneWorker checks that WithMaxProcs bounds inventory runs
// too: with one worker, progress events show no two experiments running
// at once, even across four lanes. The same stream carries no shard
// events and exactly one Done event per experiment.
func TestInventoryOneWorker(t *testing.T) {
	var mu sync.Mutex
	running, maxRunning := 0, 0
	dones := map[string]int{}
	shardEvents := 0
	progress := func(p hgw.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Kind == hgw.ProgressShard {
			shardEvents++
			return
		}
		if !p.Done {
			running++
			maxRunning = max(maxRunning, running)
			return
		}
		running--
		dones[p.ID]++
	}
	_, err := hgw.Run(context.Background(), poolIDs, poolOpts(4, 1, hgw.WithProgress(progress))...)
	if err != nil {
		t.Fatal(err)
	}
	if maxRunning != 1 {
		t.Errorf("%d experiments ran at once under WithMaxProcs(1), want 1", maxRunning)
	}
	if shardEvents != 0 {
		t.Errorf("inventory run emitted %d shard progress events, want none", shardEvents)
	}
	for _, id := range poolIDs {
		if dones[id] != 1 {
			t.Errorf("experiment %s: %d Done events, want exactly 1", id, dones[id])
		}
	}
}
