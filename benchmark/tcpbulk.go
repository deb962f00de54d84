package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract

	"hgw"
	"hgw/internal/obs" //hgwlint:allowfile obslint the benchmark reads telemetry at its own call sites, after the calls it measures have returned
	"hgw/internal/probe"
	"hgw/internal/testbed"
)

// tcp_bulk: TCP-2/TCP-3 (Figures 8 and 9) on inventory devices that
// span wire speed down to 5 Mb/s. It is the TCP data path, the netpkt
// buffer pool, netem queueing and the GC. Each testbed holds one
// device, so route and NAT table work stays small.
var tcpTags = []string{"al", "we", "dl2", "ng3", "ls2", "owrt", "ls1", "dl10"}

const (
	tcpBytes = 8 << 20
	// tcpTransfers is how many transfers of tcpBytes one device's
	// measurement carries: upload, download, and both at once.
	tcpTransfers = 4
)

// tcpDigest is the render digest of tcp_bulk at defaultSeed.
const tcpDigest = "3b73969e906980bdd0f9e8209f5979f73bf3025e17d76b6399e5116885fc3c26"

type tcpBulk struct {
	seed int64
	rc   renderCheck
}

func newTCPBulk(seed int64) workload {
	return &tcpBulk{seed: seed, rc: renderCheck{seed: seed, recorded: tcpDigest}}
}

func (w *tcpBulk) params() map[string]any {
	return map[string]any{"ids": []string{"tcp2"}, "tags": tcpTags, "transfer_bytes": tcpBytes}
}

// setUp boots every testbed a measurement boots: one per device and
// transfer phase (upload, download, both ways).
func (w *tcpBulk) setUp() error {
	for _, tag := range tcpTags {
		for phase := 0; phase < 3; phase++ {
			_, s := testbed.Run(testbed.Config{Tags: []string{tag}, Seed: w.seed})
			s.Shutdown()
		}
	}
	return nil
}

func (w *tcpBulk) close() {}

func (w *tcpBulk) measure() (hgw.Results, error) {
	return hgw.Run(context.Background(), []string{"tcp2"}, hgw.WithSeed(w.seed),
		hgw.WithTags(tcpTags...), hgw.WithTransferBytes(tcpBytes))
}

func (w *tcpBulk) op() error {
	rs, err := w.measure()
	if err != nil {
		return err
	}
	if _, err := throughputs(rs); err != nil {
		return err
	}
	return w.rc.check(rs)
}

// throughputs returns the tcp2 rows, checking that every device
// carried data both ways.
func throughputs(rs hgw.Results) ([]hgw.Throughput, error) {
	r := rs.Get("tcp2")
	if r == nil {
		return nil, fmt.Errorf("tcp2 result missing")
	}
	tps, err := r.Throughputs()
	if err != nil {
		return nil, err
	}
	if len(tps) != len(tcpTags) {
		return nil, fmt.Errorf("tcp2: %d rows, want %d", len(tps), len(tcpTags))
	}
	for _, tp := range tps {
		if tp.UpMbps <= 0 || tp.DownMbps <= 0 {
			return nil, fmt.Errorf("tcp2 %s: no throughput", tp.Tag)
		}
	}
	return tps, nil
}

func (w *tcpBulk) run(d time.Duration, t *tally, m metrics, _ *rssPeaks) error {
	measureSerial(d, t, m, w.op)
	return nil
}

// trace times each device's probe.MeasureThroughput on as many workers
// as hgw.Run uses, and checks each row against hgw.Run's. An hgw.Run
// before it gives the reference rows; the same replay runs once traced
// and once untraced, for the tracing overhead.
func (w *tcpBulk) trace(tr *tracer, t *tally, m metrics) error {
	rs, err := w.measure()
	var want []hgw.Throughput
	if err == nil {
		want, err = throughputs(rs)
	}
	t.record(err)
	if err != nil {
		return nil
	}

	runtime.GC()
	alloc0, proc0 := allocBytes(), obs.Proc.Snapshot()
	got, per, traced := w.replay(tr)
	alloc1, proc1 := allocBytes(), obs.Proc.Snapshot()
	t.record(checkRows(got, want, "traced"))
	runtime.GC()
	got, _, untraced := w.replay(nil)
	t.record(checkRows(got, want, "untraced"))

	var sum time.Duration
	for _, d := range per {
		sum += d
	}
	payload := float64(len(tcpTags) * tcpTransfers * tcpBytes)
	m.set("probe.throughput_s_per_device", sum.Seconds()/float64(len(per)), "s")
	m.set("tcp.alloc_bytes_per_payload_byte", float64(alloc1-alloc0)/payload, "B/B")
	m.set("netpkt.pool_hit_ratio.tcp_bulk", poolHitRatio(proc0, proc1), "ratio")
	m.set("trace.overhead_pct.tcp_bulk", overheadPct(traced, untraced), "%")
	return nil
}

// replay measures every device with probe.MeasureThroughput, at most
// nproc at a time, and returns the rows, each device's span (zero when
// tr is nil) and the wall time.
func (w *tcpBulk) replay(tr *tracer) ([]hgw.Throughput, []time.Duration, time.Duration) {
	start := time.Now()
	root := tr.begin("tcp_bulk.measure", 0)
	got := make([]hgw.Throughput, len(tcpTags))
	per := make([]time.Duration, len(tcpTags))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, tag := range tcpTags {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sp := tr.begin("probe.throughput", root)
			got[i] = probe.MeasureThroughput(tag, hgw.Options{TransferBytes: tcpBytes}, w.seed)
			per[i] = tr.end(sp)
		}()
	}
	wg.Wait()
	tr.end(root)
	return got, per, time.Since(start)
}

func checkRows(got, want []hgw.Throughput, pass string) error {
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s tcp2 %s differs from hgw.Run", pass, tcpTags[i])
		}
	}
	return nil
}
