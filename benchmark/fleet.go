package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract

	"hgw"
	"hgw/internal/gateway"
	"hgw/internal/netem"
	"hgw/internal/obs" //hgwlint:allowfile obslint the benchmark reads telemetry at its own call sites, after the calls it measures have returned
	"hgw/internal/report"
	"hgw/internal/stats"
	"hgw/internal/testbed"
)

// fleet_udp: the UDP-1/2/3 population sweeps over a synthetic fleet,
// in process. It is the packet path at scale: sim, netem, stack route
// lookup over one route per device VLAN, nat binding create and expire,
// udp, probe and testbed DHCP bring-up. No TCP data, no service.
const (
	fleetDevices = 2048
	fleetShards  = 8
)

var fleetIDs = []string{"udp1", "udp2", "udp3"}

// fleetDigest is the render digest of fleet_udp at defaultSeed.
const fleetDigest = "5d9c7ef242f2eac3c6ec7730472adfd006e76fda27057507a483934b75e7c62c"

type fleetUDP struct {
	seed  int64
	procs int
	rc    renderCheck
}

func newFleetUDP(seed int64) workload {
	return &fleetUDP{seed: seed, procs: runtime.NumCPU(), rc: renderCheck{seed: seed, recorded: fleetDigest}}
}

func (w *fleetUDP) params() map[string]any {
	return map[string]any{"ids": fleetIDs, "fleet": fleetDevices, "shards": fleetShards,
		"iterations": 1, "max_procs": w.procs}
}

// setUp boots every shard testbed a sweep boots, one after another:
// DHCP bring-up of the whole fleet.
func (w *fleetUDP) setUp() error {
	bounds := testbed.Partition(fleetDevices, fleetShards)
	stream := gateway.NewSynthStream(w.seed)
	for i := 0; i+1 < len(bounds); i++ {
		sh, err := testbed.BuildShard(stream.Next(bounds[i+1]-bounds[i]), i, bounds[i], w.seed, nil)
		if err != nil {
			return err
		}
		sh.Close()
	}
	return nil
}

func (w *fleetUDP) close() {}

func (w *fleetUDP) sweep() (hgw.Results, error) {
	return hgw.Run(context.Background(), fleetIDs, hgw.WithSeed(w.seed), hgw.WithFleet(fleetDevices),
		hgw.WithShards(fleetShards), hgw.WithIterations(1), hgw.WithMaxProcs(w.procs))
}

func (w *fleetUDP) op() error {
	rs, err := w.sweep()
	if err != nil {
		return err
	}
	for _, r := range rs {
		if r.Figure == nil || len(r.Figure.Points) != fleetDevices {
			return fmt.Errorf("%s: want %d device points", r.ID, fleetDevices)
		}
	}
	return w.rc.check(rs)
}

func (w *fleetUDP) run(d time.Duration, t *tally, m metrics, _ *rssPeaks) error {
	measureSerial(d, t, m, w.op)
	return nil
}

// shardTrace is one replayed shard's telemetry.
type shardTrace struct {
	pts              [][]stats.DevicePoint
	snap             *obs.Snapshot
	build, close     time.Duration
	sweep            []time.Duration
	delivered, drops int
	err              error
}

// trace replays the sweep shard by shard through the layer
// constructors hgw.Run uses, on the same number of workers, with a
// span around each call, and asserts that the replay renders
// byte-identically to hgw.Run. An hgw.Run before it gives the
// reference output; the same replay runs once traced and once
// untraced, for the tracing overhead.
func (w *fleetUDP) trace(tr *tracer, t *tally, m metrics) error {
	want, err := w.sweep()
	t.record(err)
	if err != nil {
		return nil
	}
	exps := make([]*hgw.Experiment, len(fleetIDs))
	for j, id := range fleetIDs {
		if exps[j], err = hgw.Lookup(id); err != nil {
			return err
		}
	}

	runtime.GC()
	alloc0, proc0 := allocBytes(), obs.Proc.Snapshot()
	shards, texts, traced := w.replay(tr, exps)
	alloc1, proc1 := allocBytes(), obs.Proc.Snapshot()
	t.record(checkReplay(shards, texts, want, "traced"))
	runtime.GC()
	plain, texts, untraced := w.replay(nil, exps)
	t.record(checkReplay(plain, texts, want, "untraced"))

	// simHost is the host time spent inside simulators: bring-up and
	// sweeps.
	var build, closeT, simHost time.Duration
	var fired, created, translations, natDrops uint64
	var delivered, drops int
	sweeps := make([]time.Duration, len(exps))
	for _, s := range shards {
		if s.err != nil {
			continue
		}
		build += s.build
		closeT += s.close
		simHost += s.build
		for j, d := range s.sweep {
			sweeps[j] += d
			simHost += d
		}
		fired += s.snap.Counters[obs.CSimEventsFired]
		created += s.snap.Counters[obs.CNATBindingsCreated]
		translations += s.snap.Counters[obs.CNATTranslations]
		natDrops += s.snap.Counters[obs.CNATDrops]
		delivered += s.delivered
		drops += s.drops
	}
	m.set("testbed.build_ms_per_device", float64(build)/float64(time.Millisecond)/fleetDevices, "ms")
	for j, id := range fleetIDs {
		m.set("probe.sweep_s."+id, sweeps[j].Seconds(), "s")
	}
	m.set("sim.events_fired", float64(fired), "count")
	m.set("sim.host_ns_per_event", float64(simHost)/float64(fired), "ns")
	m.set("nat.bindings_created", float64(created), "count")
	m.set("nat.translations", float64(translations), "count")
	m.set("nat.drops", float64(natDrops), "count")
	m.set("netem.frames_delivered", float64(delivered), "count")
	m.set("netem.frames_dropped", float64(drops), "count")
	m.set("netpkt.pool_hit_ratio.fleet_udp", poolHitRatio(proc0, proc1), "ratio")
	m.set("hgw.alloc_bytes_per_device", float64(alloc1-alloc0)/fleetDevices, "B")
	m.set("testbed.close_ms", float64(closeT)/float64(time.Millisecond)/float64(len(shards)), "ms")
	m.set("trace.overhead_pct.fleet_udp", overheadPct(traced, untraced), "%")
	return nil
}

// replay runs the sweep shard by shard on w.procs workers and renders
// each figure as hgw.Run does. It returns the shards' telemetry (only
// errors and points when tr is nil), the rendered texts and the wall
// time.
func (w *fleetUDP) replay(tr *tracer, exps []*hgw.Experiment) ([]shardTrace, []string, time.Duration) {
	start := time.Now()
	root := tr.begin("fleet_udp.sweep", 0)
	bounds := testbed.Partition(fleetDevices, fleetShards)
	n := len(bounds) - 1
	sp := tr.begin("gateway.synth", root)
	stream := gateway.NewSynthStream(w.seed)
	profiles := make([][]gateway.Profile, n)
	for i := range profiles {
		profiles[i] = stream.Next(bounds[i+1] - bounds[i])
	}
	tr.end(sp)
	shards := make([]shardTrace, n)
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for k := 0; k < w.procs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				shards[i] = w.replayShard(tr, root, exps, profiles[i], i, bounds[i])
			}
		}()
	}
	wg.Wait()
	sp = tr.begin("report.render", root)
	var texts []string
	for j, e := range exps {
		var pts []stats.DevicePoint
		for i := range shards {
			if shards[i].err == nil {
				pts = append(pts, shards[i].pts[j]...)
			}
		}
		fig := report.NewFigureFromPoints(e.Title, e.Unit, pts)
		text := fig.RenderSummary()
		if len(fig.Points) <= 40 {
			text = fig.Render(50, e.LogScale)
		}
		texts = append(texts, text)
	}
	tr.end(sp)
	tr.end(root)
	return shards, texts, time.Since(start)
}

// checkReplay checks that every shard replayed and every figure
// renders as hgw.Run's does.
func checkReplay(shards []shardTrace, texts []string, want hgw.Results, pass string) error {
	for i := range shards {
		if shards[i].err != nil {
			return shards[i].err
		}
	}
	for j := range texts {
		if texts[j] != want[j].Render() {
			return fmt.Errorf("%s replay of %s renders differently from hgw.Run", pass, fleetIDs[j])
		}
	}
	return nil
}

// replayShard builds, sweeps and closes one shard as hgw.Run's fleet
// worker does, with a span around each layer call.
func (w *fleetUDP) replayShard(tr *tracer, root int, exps []*hgw.Experiment,
	profiles []gateway.Profile, i, offset int) (st shardTrace) {

	shard := tr.begin("fleet_udp.shard", root)
	defer tr.end(shard)
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	sp := tr.begin("testbed.build", shard)
	sh, err := testbed.BuildShard(profiles, i, offset, w.seed, reg)
	st.build = tr.end(sp)
	if err != nil {
		st.err = err
		return st
	}
	st.pts = make([][]stats.DevicePoint, len(exps))
	for j, e := range exps {
		sp := tr.begin("probe.sweep."+e.ID, shard)
		rows := e.Sweep(&hgw.Env{Seed: w.seed + int64(i), Options: hgw.Options{Iterations: 1},
			Testbed: sh.Testbed, Sim: sh.Sim})
		st.sweep = append(st.sweep, tr.end(sp))
		for _, r := range rows {
			if len(r.Samples) > 0 {
				st.pts[j] = append(st.pts[j], r.Point())
			}
		}
	}
	if tr == nil {
		sh.Close()
		return st
	}
	for _, node := range sh.Testbed.Nodes {
		for _, l := range []*netem.Link{node.WANLink(), node.LANLink()} {
			ab, ba := l.Delivered()
			st.delivered += ab + ba
			ab, ba = l.Drops()
			st.drops += ab + ba
		}
	}
	sp = tr.begin("testbed.close", shard)
	sh.Close()
	st.close = tr.end(sp)
	st.snap = reg.Snapshot()
	return st
}
