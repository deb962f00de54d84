package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract

	"hgw"
	"hgw/internal/memo"
	"hgw/internal/nat"
	"hgw/internal/netem"
	"hgw/internal/netpkt"
	"hgw/internal/sim"
	"hgw/internal/stack"
	"hgw/internal/tcp"
)

// A fixture times one layer's public calls on inputs sized like the
// workloads', so each layer likely to be optimised has a number with
// and without its heavy workload. prep builds n operations' inputs
// untimed and returns the timed part, which performs them and returns
// an error if any misbehaved; report turns the median time and
// allocations per operation into metrics.
type fixture struct {
	name   string
	n      int
	prep   func(n int) (func() error, error)
	report func(m metrics, perOp time.Duration, allocsPerOp float64)
}

// fixtureReps is how many timed repetitions a fixture runs; it
// reports the median.
const fixtureReps = 5

// nsPerOp reports the time per operation in ns under timeName and
// the allocations per operation under allocName.
func nsPerOp(timeName, allocName string) func(metrics, time.Duration, float64) {
	return func(m metrics, perOp time.Duration, allocs float64) {
		m.set(timeName, float64(perOp), "ns")
		m.set(allocName, allocs, "count")
	}
}

func runFixtures(tr *tracer, t *tally, m metrics) error {
	dir := filepath.Join(".bench_build", "fixtures", fmt.Sprint(os.Getpid()))
	defer os.RemoveAll(dir)
	fleetResults, err := hgw.Run(context.Background(), []string{"udp1"}, hgw.WithSeed(defaultSeed),
		hgw.WithFleet(mixFleet), hgw.WithShards(mixShards), hgw.WithIterations(1))
	if err != nil {
		return err
	}
	fixtures := []fixture{
		{name: "sim.event", n: 64 << 10, prep: simEvents, report: nsPerOp("sim.event_ns", "sim.event_allocs")},
		{name: "sim.handoff", n: 16 << 10, prep: simHandoff, report: nsPerOp("sim.handoff_ns", "sim.handoff_allocs")},
		{name: "netem.hop", n: 32 << 10, prep: netemHops, report: nsPerOp("netem.hop_ns", "netem.hop_allocs")},
		{name: "stack.lookup.r256", n: 64 << 10, prep: routeLookups(256), report: nsPerOp("stack.lookup_ns.r256", "stack.lookup_allocs.r256")},
		{name: "stack.lookup.r2", n: 256 << 10, prep: routeLookups(2), report: nsPerOp("stack.lookup_ns.r2", "stack.lookup_allocs.r2")},
		{name: "nat.outbound_hit", n: 32 << 10, prep: natOutbound(false), report: nsPerOp("nat.outbound_hit_ns", "nat.outbound_hit_allocs")},
		{name: "nat.outbound_new", n: 16 << 10, prep: natOutbound(true), report: nsPerOp("nat.outbound_new_ns", "nat.outbound_new_allocs")},
		{name: "tcp.bulk", n: 1, prep: tcpBulkTransfer, report: func(m metrics, perOp time.Duration, allocs float64) {
			mb := float64(tcpBytes) / (1 << 20)
			m.set("tcp.bulk_mb_per_s", mb/perOp.Seconds(), "MB/s")
			m.set("tcp.allocs_per_mb", allocs/mb, "count")
		}},
		{name: "memo.get.mem", n: 64 << 10, prep: memoGet(""), report: nsPerOp("memo.get_ns.mem", "memo.get_allocs.mem")},
		{name: "memo.get.disk", n: 2 << 10, prep: memoGet(dir), report: nsPerOp("memo.get_ns.disk", "memo.get_allocs.disk")},
		{name: "memo.put.disk", n: 256, prep: memoPut(dir), report: nsPerOp("memo.put_ns.disk", "memo.put_allocs.disk")},
		{name: "hgw.results_json", n: 16, prep: resultsJSON(fleetResults), report: func(m metrics, perOp time.Duration, allocs float64) {
			m.set("hgw.results_json_ms", float64(perOp)/float64(time.Millisecond), "ms")
			m.set("hgw.results_json_allocs", allocs, "count")
		}},
	}
	root := tr.begin("fixtures", 0)
	defer tr.end(root)
	for _, f := range fixtures {
		sp := tr.begin("fixture."+f.name, root)
		err := f.measure(m)
		tr.end(sp)
		t.record(err)
	}
	return nil
}

// measure runs the fixture's repetitions and reports the median time
// and allocations per operation.
func (f fixture) measure(m metrics) error {
	times := make([]float64, fixtureReps)
	allocs := make([]float64, fixtureReps)
	for i := range times {
		op, err := f.prep(f.n)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		err = op()
		times[i] = float64(time.Since(start)) / float64(f.n)
		runtime.ReadMemStats(&ms1)
		allocs[i] = float64(ms1.Mallocs-ms0.Mallocs) / float64(f.n)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	f.report(m, time.Duration(median(times)), median(allocs))
	return nil
}

// simEvents schedules events in batches of 64 and fires them.
func simEvents(n int) (func() error, error) {
	s := sim.New(1)
	fired := 0
	fn := func() { fired++ }
	return func() error {
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				s.After(time.Duration(j)*time.Microsecond, fn)
			}
			s.Run(0)
		}
		if fired != n {
			return fmt.Errorf("fired %d of %d events", fired, n)
		}
		return nil
	}, nil
}

// simHandoff parks and resumes one simulator process n times: each
// Proc.Sleep hands control from the process goroutine to the scheduler
// and back.
func simHandoff(n int) (func() error, error) {
	return func() error {
		s := sim.New(1)
		defer s.Shutdown()
		woke := 0
		s.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Nanosecond)
				woke++
			}
		})
		s.Run(0)
		if woke != n {
			return fmt.Errorf("woke %d of %d times", woke, n)
		}
		return nil
	}, nil
}

// netemHops bounces one frame across a 1 Gb/s link n times: each hop
// serializes, propagates and delivers it.
func netemHops(n int) (func() error, error) {
	s := sim.New(1)
	a := &netem.Iface{Name: "a", MAC: netpkt.MAC{2, 0, 0, 0, 0, 1}}
	b := &netem.Iface{Name: "b", MAC: netpkt.MAC{2, 0, 0, 0, 0, 2}}
	netem.Connect(s, a, b, netem.LinkConfig{Rate: 1e9})
	hops := 0
	bounce := func(from *netem.Iface) func(*netpkt.Frame) {
		return func(f *netpkt.Frame) {
			hops++
			if hops < n {
				from.Send(f)
			}
		}
	}
	a.Recv, b.Recv = bounce(a), bounce(b)
	f := &netpkt.Frame{Src: a.MAC, Dst: b.MAC, Type: netpkt.EtherTypeIPv4, Payload: make([]byte, 128)}
	return func() error {
		s.After(0, func() { a.Send(f) })
		s.Run(0)
		if hops != n {
			return fmt.Errorf("%d of %d hops", hops, n)
		}
		return nil
	}, nil
}

// routeLookups resolves destinations on a host with one connected /24
// per interface, as the fleet server has one per device VLAN.
func routeLookups(routes int) func(n int) (func() error, error) {
	return func(n int) (func() error, error) {
		h := stack.NewHost(sim.New(1), "server")
		dsts := make([]netip.Addr, routes)
		for i := range dsts {
			h.AddIf(fmt.Sprintf("v%d", i), netpkt.Addr4(10, byte(i>>8), byte(i), 1), 24)
			dsts[i] = netpkt.Addr4(10, byte(i>>8), byte(i), 100)
		}
		return func() error {
			for i := 0; i < n; i++ {
				if _, ok := h.Lookup(dsts[i%routes]); !ok {
					return fmt.Errorf("no route to %v", dsts[i%routes])
				}
			}
			return nil
		}, nil
	}
}

// natOutbound translates n outbound UDP packets: all of one flow
// (binding hits) or each of a new flow (binding creation).
func natOutbound(fresh bool) func(n int) (func() error, error) {
	server := netpkt.Addr4(10, 0, 1, 1)
	return func(n int) (func() error, error) {
		e := nat.NewEngine(sim.New(1), nat.Policy{})
		e.SetWAN(netpkt.Addr4(10, 0, 1, 50))
		pkts := make([]*netpkt.IPv4, n)
		for i := range pkts {
			client, sport := netpkt.Addr4(192, 168, 1, 100), uint16(40000)
			if fresh {
				client = netpkt.Addr4(192, 168, byte(1+i>>12), byte(100+i>>10&3))
				sport = uint16(20000 + i&1023)
			}
			u := &netpkt.UDP{SrcPort: sport, DstPort: 3478, Payload: []byte("probe")}
			pkts[i] = &netpkt.IPv4{Protocol: netpkt.ProtoUDP, TTL: 64, Src: client, Dst: server,
				Payload: u.Marshal(client, server)}
		}
		return func() error {
			for i, p := range pkts {
				if !e.Outbound(p) {
					return fmt.Errorf("packet %d not translated", i)
				}
			}
			if fresh && e.BindingCount() != n {
				return fmt.Errorf("%d bindings for %d flows", e.BindingCount(), n)
			}
			return nil
		}, nil
	}
}

// tcpBulkTransfer moves one tcp_bulk transfer's tcpBytes over one TCP
// connection between two hosts on a 1 Gb/s link.
func tcpBulkTransfer(int) (func() error, error) {
	return func() error {
		s := sim.New(1)
		defer s.Shutdown()
		ha, hb := stack.NewHost(s, "a"), stack.NewHost(s, "b")
		ia := ha.AddIf("eth0", netpkt.Addr4(10, 0, 0, 1), 24)
		ib := hb.AddIf("eth0", netpkt.Addr4(10, 0, 0, 2), 24)
		netem.Connect(s, ia.Link, ib.Link, netem.LinkConfig{Rate: 1e9})
		ta, tb := tcp.New(ha), tcp.New(hb)
		lis, err := tb.Listen(5001)
		if err != nil {
			return err
		}
		var rcvd int
		var xerr error
		s.Spawn("server", func(p *sim.Proc) {
			c, err := lis.Accept(p, 10*time.Second)
			if err != nil {
				xerr = err
				return
			}
			for {
				data, err := c.Read(p, 1<<16, 30*time.Second)
				if err == io.EOF {
					return
				}
				if err != nil {
					xerr = err
					return
				}
				rcvd += len(data)
			}
		})
		s.Spawn("client", func(p *sim.Proc) {
			c, err := ta.Connect(p, netpkt.Addr4(10, 0, 0, 2), 5001, 0, 10*time.Second)
			if err != nil {
				xerr = err
				return
			}
			chunk := make([]byte, 32<<10)
			for sent := 0; sent < tcpBytes; sent += len(chunk) {
				if err := c.Write(p, chunk); err != nil {
					xerr = err
					return
				}
			}
			c.Close()
		})
		s.Run(0)
		if xerr != nil {
			return xerr
		}
		if rcvd != tcpBytes {
			return fmt.Errorf("received %d of %d bytes", rcvd, tcpBytes)
		}
		return nil
	}, nil
}

// memoBlob is sized like one hgwd_mix shard's encoded rows.
var memoBlob = func() []byte {
	b := make([]byte, 16<<10)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}()

func memoKey(i int) string { return fmt.Sprintf("fixture%08d", i) }

// memoGet reads one stored blob n times, from the memory tier (dir
// empty) or from the disk tier.
func memoGet(dir string) func(n int) (func() error, error) {
	return func(n int) (func() error, error) {
		var get func(string) ([]byte, bool)
		if dir == "" {
			s, err := memo.Open(memo.Config{})
			if err != nil {
				return nil, err
			}
			s.Put(memoKey(0), memoBlob)
			get = s.Get
		} else {
			d, err := memo.OpenDisk(filepath.Join(dir, "get"), 0, 0)
			if err != nil {
				return nil, err
			}
			d.Put(memoKey(0), memoBlob)
			get = d.Get
		}
		return func() error {
			for i := 0; i < n; i++ {
				if b, ok := get(memoKey(0)); !ok || len(b) != len(memoBlob) {
					return fmt.Errorf("get %d missed", i)
				}
			}
			return nil
		}, nil
	}
}

// memoPut writes n new blobs to a fresh disk tier.
func memoPut(dir string) func(n int) (func() error, error) {
	reps := 0
	return func(n int) (func() error, error) {
		reps++
		d, err := memo.OpenDisk(filepath.Join(dir, fmt.Sprintf("put%d", reps)), 0, 0)
		if err != nil {
			return nil, err
		}
		return func() error {
			for i := 0; i < n; i++ {
				d.Put(memoKey(i), memoBlob)
			}
			if st := d.Stats(); st.Entries != n {
				return fmt.Errorf("%d entries after %d puts", st.Entries, n)
			}
			return nil
		}, nil
	}
}

// resultsJSON encodes an hgwd_mix-sized fleet result as hgwd does for
// an executed job.
func resultsJSON(rs hgw.Results) func(n int) (func() error, error) {
	return func(n int) (func() error, error) {
		return func() error {
			for i := 0; i < n; i++ {
				if _, err := json.Marshal(rs); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
}
