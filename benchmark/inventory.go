package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hgw"
	"hgw/internal/testbed"
)

// inventory: the paper's default artifact set without tcp2 on the 34
// Table 1 devices. It is the only workload that runs the inventory
// lane scheduler, testbed sharing between experiments, standalone
// dispatch and the Table 2 probes.
var inventoryIDs = []string{"udp1", "udp2", "udp3", "udp4", "udp5", "tcp1", "tcp4",
	"icmp", "sctp", "dccp", "dns", "quirks"}

const inventoryIters = 20

// inventoryDigest is the render digest of inventory at defaultSeed.
const inventoryDigest = "75de57c2018b45c061449c60b243270fff5b8467e3d8059c021319c7b0131c4c"

type inventory struct {
	seed int64
	rc   renderCheck
}

func newInventory(seed int64) workload {
	return &inventory{seed: seed, rc: renderCheck{seed: seed, recorded: inventoryDigest}}
}

func (w *inventory) params() map[string]any {
	return map[string]any{"ids": inventoryIDs, "devices": len(hgw.DeviceTags()), "iterations": inventoryIters}
}

// inventoryLanes is hgw's default parallelism: the number of lanes,
// each with its own 34-device testbed, the set runs on.
const inventoryLanes = 4

// setUp boots every lane's testbed.
func (w *inventory) setUp() error {
	for i := 0; i < inventoryLanes; i++ {
		_, s := testbed.Run(testbed.Config{Seed: w.seed})
		s.Shutdown()
	}
	return nil
}

func (w *inventory) close() {}

func (w *inventory) options() []hgw.Option {
	return []hgw.Option{hgw.WithSeed(w.seed), hgw.WithIterations(inventoryIters)}
}

func (w *inventory) check(rs hgw.Results) error {
	if len(rs) != len(inventoryIDs) {
		return fmt.Errorf("%d results, want %d", len(rs), len(inventoryIDs))
	}
	return w.rc.check(rs)
}

func (w *inventory) op() error {
	rs, err := hgw.Run(context.Background(), inventoryIDs, w.options()...)
	if err != nil {
		return err
	}
	return w.check(rs)
}

func (w *inventory) run(d time.Duration, t *tally, m metrics, _ *rssPeaks) error {
	measureSerial(d, t, m, w.op)
	return nil
}

// trace runs the set untraced, traced through WithProgress spans per
// experiment and WithRunReport, and untraced again for the untraced
// time.
func (w *inventory) trace(tr *tracer, t *tally, m metrics) error {
	t.record(w.op())

	root := tr.begin("inventory.run", 0)
	var mu sync.Mutex
	open := map[int]int{}
	took := map[string]time.Duration{}
	progress := func(p hgw.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if !p.Done {
			open[p.Index] = tr.begin("hgw.exp."+p.ID, root)
			return
		}
		took[p.ID] = tr.end(open[p.Index])
	}
	r := hgw.NewRunner(append(w.options(), hgw.WithProgress(progress), hgw.WithRunReport(nil))...)
	rs, err := r.Run(context.Background(), inventoryIDs)
	traced := tr.end(root)
	if err == nil {
		err = w.check(rs)
	}
	t.record(err)
	if err != nil {
		return nil
	}
	untraced := timeOp(t, w.op)
	for _, id := range inventoryIDs {
		m.set("hgw.exp_s."+id, took[id].Seconds(), "s")
	}
	rep := r.Report()
	m.set("hgw.testbeds_built", float64(r.TestbedsBuilt()), "count")
	m.set("sim.events_fired.inventory", float64(rep.Totals.Counters["sim_events_fired"]), "count")
	m.set("trace.overhead_pct.inventory", overheadPct(traced, untraced), "%")
	return nil
}
