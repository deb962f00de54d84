package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time" //hgwlint:allowfile detlint the benchmark times the program in host wall time by design; it runs outside the equal-seed contract

	"hgw/internal/service"
)

// hgwd_mix: an in-process hgwd on loopback under a closed loop of two
// clients, each with one keep-alive connection and no think time. A
// seeded schedule of udp1 fleet specs fixes each request's outcome, so
// the run exercises every service layer the simulator workloads
// bypass: queue, result cache, single-flight coalescing, the shard
// memo, JSON encoding and NDJSON streaming.
const (
	mixClients = 2
	mixWorkers = 2
	mixFleet   = 256
	mixShards  = 4
	// mixJobProcs runs each job's shards on one core, so the worker
	// pool's jobs use at most nproc (2) cores between them.
	mixJobProcs = 1
	// mixHitWindow bounds which completed seeds a hit may repeat: the
	// client's most recent ones, so hits stay in the result cache's
	// memory tier (64 entries) whatever the run length.
	mixHitWindow = 8
	// mixTraceSteps is how many schedule steps each client runs in
	// the measured passes of a traced run: three blocks, so every
	// outcome's median has at least 21 samples (about 24 memo
	// requests, the fewest).
	mixTraceSteps = 3 * mixBlock
	// mixRSSRequests is after how many requests a run holds its memory
	// sample. hgwd keeps every finished job, so memory grows with the
	// requests served; a fixed count keeps peak_rss_mb independent of
	// throughput. Four blocks' worth is reached within 10 s even on a
	// slow host.
	mixRSSRequests = 4 * mixBlock
)

// outcome is how the service should serve a request.
type outcome int

const (
	outExec      outcome = iota // fresh seed: executed
	outCoalesced                // both clients submit one fresh seed together
	outMemo                     // completed seed grown by one shard: memo replays all but the new shard
	outHit                      // completed seed resubmitted: result cache hit
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"exec", "coalesced", "memo", "hit"}

// mixBlock is the schedule's block length in steps, and mixCounts how
// many steps of each outcome a block holds, in seeded order. Fixing
// the counts per block, rather than drawing each step, keeps the mix
// the same at every seed. The coalesced steps of a block are the same
// steps for both clients.
const mixBlock = 50

var mixCounts = [numOutcomes]int{outExec: 5, outCoalesced: 5, outMemo: 4, outHit: 36}

type hgwdMix struct {
	seed int64
	d    *daemon
	n    int // daemons started, for distinct cache dirs
}

func newHGWDMix(seed int64) workload { return &hgwdMix{seed: seed} }

func (w *hgwdMix) params() map[string]any {
	weights := map[string]float64{}
	for o, n := range mixCounts {
		weights[outcomeNames[o]] = float64(n) / mixBlock
	}
	return map[string]any{"ids": []string{"udp1"}, "fleet": mixFleet, "shards": mixShards, "iterations": 1,
		"clients": mixClients, "workers": mixWorkers, "max_procs": mixJobProcs, "weights": weights, "hit_window": mixHitWindow}
}

func spec(seed int64, grown bool) service.Spec {
	sp := service.Spec{IDs: []string{"udp1"}, Seed: seed, Iterations: 1, Fleet: mixFleet, Shards: mixShards,
		MaxProcs: mixJobProcs}
	if grown {
		sp.Fleet += mixFleet / mixShards
		sp.Shards++
	}
	return sp
}

// setUp starts a daemon on a fresh cache directory, connects both
// clients and runs one cold job: the time to a first result.
func (w *hgwdMix) setUp() error {
	w.n++
	d, err := startDaemon(filepath.Join(".bench_build", "hgwd", fmt.Sprintf("%d-%d", os.Getpid(), w.n)))
	if err != nil {
		return err
	}
	w.d = d
	for _, c := range d.clients[1:] {
		if _, err := c.stats(); err != nil {
			return err
		}
	}
	r := d.clients[0].do(nil, spec(-w.seed-1, false))
	if r.err == nil && r.view.Cached {
		r.err = errors.New("set-up job served from cache")
	}
	return r.err
}

func (w *hgwdMix) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// daemon is an in-process hgwd and its clients.
type daemon struct {
	svc     *service.Service
	srv     *http.Server
	served  chan struct{}
	dir     string
	clients []*client
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: mixWorkers, CacheDir: dir})
	if warn := svc.Warnings(); len(warn) > 0 {
		return nil, fmt.Errorf("hgwd: %v", warn)
	}
	svc.Start(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Shutdown()
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, served: make(chan struct{}), dir: dir}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for i := 0; i < mixClients; i++ {
		d.clients = append(d.clients, newClient(ln.Addr().String()))
	}
	return d, nil
}

func (d *daemon) stop() {
	for _, c := range d.clients {
		c.tr.CloseIdleConnections()
	}
	d.srv.Close()
	<-d.served
	d.svc.Shutdown()
	os.RemoveAll(d.dir)
}

// client is one closed-loop client with a single keep-alive connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(hostport string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + hostport, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// reply is one request's client-side record.
type reply struct {
	view                  service.View
	resultBytes           int
	resultSum             [32]byte
	rows                  int
	total                 time.Duration
	submit, stream, fetch time.Duration
	err                   error
}

// do runs one request: POST the spec, read the job's NDJSON stream to
// EOF, then GET the job with its results. tr, when non-nil, records a
// span per phase.
func (c *client) do(tr *tracer, sp service.Spec) (r reply) {
	body, err := json.Marshal(sp)
	if err != nil {
		r.err = err
		return r
	}
	root := tr.begin("client.request", 0)
	defer tr.end(root)
	start := time.Now()

	sp0 := tr.begin("client.submit", root)
	var posted service.View
	r.err = c.call(http.MethodPost, "/v1/jobs", body, func(b io.Reader) error {
		return json.NewDecoder(b).Decode(&posted)
	})
	tr.end(sp0)
	r.submit = time.Since(start)
	if r.err != nil {
		return r
	}

	t1 := time.Now()
	sp1 := tr.begin("client.stream", root)
	r.err = c.call(http.MethodGet, "/v1/jobs/"+posted.ID+"/stream", nil, func(b io.Reader) error {
		var err error
		r.rows, err = countLines(b)
		return err
	})
	tr.end(sp1)
	r.stream = time.Since(t1)
	if r.err != nil {
		return r
	}

	t2 := time.Now()
	sp2 := tr.begin("client.fetch", root)
	r.err = c.call(http.MethodGet, "/v1/jobs/"+posted.ID, nil, func(b io.Reader) error {
		return json.NewDecoder(b).Decode(&r.view)
	})
	tr.end(sp2)
	r.fetch = time.Since(t2)
	r.total = time.Since(start)
	if r.err != nil {
		return r
	}
	r.resultBytes = len(r.view.Results)
	r.resultSum = sha256.Sum256(r.view.Results)
	if r.view.Status != service.StatusDone {
		r.err = fmt.Errorf("job %s %s: %s", r.view.ID, r.view.Status, r.view.Error)
	} else if r.rows != r.view.Devices || r.rows != sp.Fleet {
		r.err = fmt.Errorf("job %s streamed %d rows for %d devices", r.view.ID, r.rows, sp.Fleet)
	}
	return r
}

// call issues one request, hands a 200/202 body to read and drains the
// body so the connection is reused.
func (c *client) call(method, path string, body []byte, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	err = read(resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body)
	return err
}

func countLines(r io.Reader) (int, error) {
	buf := make([]byte, 32<<10)
	n := 0
	for {
		k, err := r.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// rendezvous pairs the two clients' coalesced steps. The second client
// to arrive decides, for both, whether the step runs: only while the
// window is open. A client that stops releases a waiting peer.
type rendezvous struct {
	mu       sync.Mutex
	waiting  chan bool
	left     bool
	deadline time.Time
}

func (rv *rendezvous) meet() bool {
	rv.mu.Lock()
	if rv.left {
		rv.mu.Unlock()
		return false
	}
	if rv.waiting == nil {
		ch := make(chan bool, 1)
		rv.waiting = ch
		rv.mu.Unlock()
		return <-ch
	}
	ch := rv.waiting
	rv.waiting = nil
	rv.mu.Unlock()
	ok := time.Now().Before(rv.deadline)
	ch <- ok
	return ok
}

func (rv *rendezvous) leave() {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.left = true
	if rv.waiting != nil {
		rv.waiting <- false
		rv.waiting = nil
	}
}

// schedule draws one client's requests, one block of mixBlock steps at
// a time. Which steps are coalesced, and their seeds, comes from a
// stream both clients share; the order of the client's other steps
// comes from its own stream. Every seed depends only on the workload
// seed and the client's history, so equal workload seeds issue equal
// requests.
type schedule struct {
	shared, own *rand.Rand
	base        int64
	id          int
	block       []outcome
	execs, co   int64
	done        []int64 // completed base seeds, oldest first
	// growable holds the seeds this client alone executed: a coalesced
	// seed is in both clients' histories, and growing it twice would
	// turn the second memo request into a hit.
	growable []int64
}

func newSchedule(seed int64, id int) *schedule {
	return &schedule{shared: rand.New(rand.NewSource(seed)), own: rand.New(rand.NewSource(seed*31 + int64(id) + 1)),
		base: seed * 10_000_000, id: id}
}

// refill lays out the next block.
func (s *schedule) refill() {
	s.block = make([]outcome, mixBlock)
	var rest []outcome
	for o := outcome(0); o < numOutcomes; o++ {
		for i := 0; i < mixCounts[o] && o != outCoalesced; i++ {
			rest = append(rest, o)
		}
	}
	s.own.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	co := map[int]bool{}
	for _, i := range s.shared.Perm(mixBlock)[:mixCounts[outCoalesced]] {
		co[i] = true
	}
	for i := range s.block {
		if co[i] {
			s.block[i] = outCoalesced
		} else {
			s.block[i], rest = rest[0], rest[1:]
		}
	}
}

// next returns the next step's outcome and spec. A hit or memo step
// with no completed seed to repeat executes a fresh seed instead.
func (s *schedule) next() (outcome, service.Spec) {
	if len(s.block) == 0 {
		s.refill()
	}
	o := s.block[0]
	s.block = s.block[1:]
	if o == outCoalesced {
		s.co++
		return outCoalesced, spec(s.base+3*s.co+2, false)
	}
	if o == outHit && len(s.done) > 0 {
		recent := s.done[max(0, len(s.done)-mixHitWindow):]
		return outHit, spec(recent[s.own.Intn(len(recent))], false)
	}
	if k := len(s.growable); o == outMemo && k > 0 {
		seed := s.growable[k-1]
		s.growable = s.growable[:k-1]
		return outMemo, spec(seed, true)
	}
	s.execs++
	return outExec, spec(s.base+3*s.execs+int64(s.id), false)
}

func (s *schedule) completed(o outcome, sp service.Spec) {
	if o == outExec || o == outCoalesced {
		s.done = append(s.done, sp.Seed)
	}
	if o == outExec {
		s.growable = append(s.growable, sp.Seed)
	}
}

// mixRun is one closed-loop run's record.
type mixRun struct {
	lats   [numOutcomes][]time.Duration
	counts [numOutcomes]int
	// Request phase times, by outcome.
	submit, fetch [numOutcomes][]time.Duration
	queueWait     []time.Duration
	execMS        []float64
	resultBytes   []float64
	wall          time.Duration
	before, after service.Stats
}

// loop runs both clients' schedules until the window closes (or, with
// steps > 0, for that many steps per client), checking every reply.
// A non-nil rss is held once mixRSSRequests requests are done.
func (w *hgwdMix) loop(tr *tracer, t *tally, d time.Duration, steps int, rss *rssPeaks) (*mixRun, error) {
	before, err := w.d.clients[0].stats()
	if err != nil {
		return nil, err
	}
	mr := &mixRun{before: before}
	var mu sync.Mutex
	sums := map[int64][32]byte{} // leader result digests by seed
	check := func(o outcome, sp service.Spec, r reply) error {
		if r.err != nil {
			return r.err
		}
		wantCached := o == outHit
		if r.view.Cached != wantCached {
			return fmt.Errorf("%s request for seed %d: cached=%v", outcomeNames[o], sp.Seed, r.view.Cached)
		}
		if o == outHit {
			if sums[sp.Seed] != r.resultSum {
				return fmt.Errorf("hit for seed %d: result bytes differ from its leader's", sp.Seed)
			}
		} else if r.view.Coalesced {
			return fmt.Errorf("%s request for seed %d: coalesced", outcomeNames[o], sp.Seed)
		}
		return nil
	}
	done := 0
	record := func(o outcome, r reply) {
		if done++; done == mixRSSRequests && rss != nil {
			rss.hold()
		}
		mr.lats[o] = append(mr.lats[o], r.total)
		mr.counts[o]++
		mr.submit[o] = append(mr.submit[o], r.submit)
		mr.fetch[o] = append(mr.fetch[o], r.fetch)
		mr.resultBytes = append(mr.resultBytes, float64(r.resultBytes))
		if o != outHit && !r.view.Coalesced {
			exec := time.Duration(r.view.ElapsedMS * float64(time.Millisecond))
			mr.execMS = append(mr.execMS, r.view.ElapsedMS)
			if o == outExec {
				mr.queueWait = append(mr.queueWait, r.stream-exec)
			}
		}
	}
	rv := &rendezvous{deadline: time.Now().Add(d)}
	if steps > 0 {
		rv.deadline = time.Now().Add(time.Hour)
	}
	// pair collects the two replies of a coalesced step.
	type pairSlot struct {
		n       int
		replies [2]reply
		wg      sync.WaitGroup
	}
	pairs := map[int64]*pairSlot{}

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < mixClients; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rv.leave()
			c := w.d.clients[id]
			sch := newSchedule(w.seed, id)
			for step := 0; steps == 0 || step < steps; step++ {
				o, sp := sch.next()
				if o == outCoalesced {
					if !rv.meet() {
						return
					}
				} else if steps == 0 && !time.Now().Before(rv.deadline) {
					return
				}
				r := c.do(tr, sp)
				mu.Lock()
				if o != outCoalesced {
					if o == outExec && r.err == nil {
						sums[sp.Seed] = r.resultSum
					}
					t.record(check(o, sp, r))
					record(o, r)
					mu.Unlock()
					sch.completed(o, sp)
					continue
				}
				ps := pairs[sp.Seed]
				if ps == nil {
					ps = &pairSlot{}
					ps.wg.Add(2)
					pairs[sp.Seed] = ps
				}
				ps.replies[ps.n] = r
				ps.n++
				if ps.n == 2 {
					t.record(checkPair(ps.replies, sums, sp.Seed))
					for _, pr := range ps.replies {
						record(outCoalesced, pr)
					}
				}
				mu.Unlock()
				ps.wg.Done()
				ps.wg.Wait() // both replies are in before either client moves on
				sch.completed(o, sp)
			}
		}()
	}
	wg.Wait()
	mr.wall = time.Since(start)
	if mr.after, err = w.d.clients[0].stats(); err != nil {
		return nil, err
	}
	t.record(checkStats(mr))
	return mr, nil
}

// checkPair checks a coalesced step: one leader executed, one follower
// attached to its flight, and both got the same bytes.
func checkPair(rs [2]reply, sums map[int64][32]byte, seed int64) error {
	for _, r := range rs {
		if r.err != nil {
			return r.err
		}
	}
	if rs[0].view.Coalesced == rs[1].view.Coalesced || rs[0].view.Cached || rs[1].view.Cached {
		return fmt.Errorf("coalesced pair for seed %d: want one leader and one follower, got coalesced=%v,%v cached=%v,%v",
			seed, rs[0].view.Coalesced, rs[1].view.Coalesced, rs[0].view.Cached, rs[1].view.Cached)
	}
	if rs[0].resultSum != rs[1].resultSum {
		return fmt.Errorf("coalesced pair for seed %d: result bytes differ", seed)
	}
	sums[seed] = rs[0].resultSum
	return nil
}

// checkStats checks the /v1/stats deltas against the schedule: every
// hit served by the result cache, one coalesce per pair, one execution
// per exec, memo and pair, and every shard but the new one of a memo
// request replayed from the memo store.
func checkStats(mr *mixRun) error {
	b, a := mr.before, mr.after
	hits := (a.Cache.Hits + a.Cache.DiskHits) - (b.Cache.Hits + b.Cache.DiskHits)
	coalesced := a.Coalesced - b.Coalesced
	executed := a.JobsExecuted - b.JobsExecuted
	memoHits := (a.Memo.MemHits + a.Memo.DiskHits) - (b.Memo.MemHits + b.Memo.DiskHits)
	pairs := uint64(mr.counts[outCoalesced] / 2)
	want := []struct {
		name      string
		got, want uint64
	}{
		{"cache hits", hits, uint64(mr.counts[outHit])},
		{"coalesced", coalesced, pairs},
		{"jobs executed", executed, uint64(mr.counts[outExec]+mr.counts[outMemo]) + pairs},
		{"memo hits", memoHits, uint64(mixShards * mr.counts[outMemo])},
	}
	for _, c := range want {
		if c.got != c.want {
			return fmt.Errorf("/v1/stats %s delta %d, schedule says %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// run reports the requests completed per second, whatever their
// outcome, and the median hit latency: the median over hits alone, so
// it does not move with the schedule's hit share. Every outcome's count
// and median go to the outcomes line.
func (w *hgwdMix) run(d time.Duration, t *tally, m metrics, rss *rssPeaks) error {
	mr, err := w.loop(nil, t, d, 0, rss)
	if err != nil {
		return err
	}
	n := 0
	outcomes := map[string]any{}
	for o := outcome(0); o < numOutcomes; o++ {
		n += mr.counts[o]
		outcomes[outcomeNames[o]] = map[string]any{"requests": mr.counts[o], "p50_ms": median(millis(mr.lats[o]))}
	}
	line, err := json.Marshal(outcomes)
	if err != nil {
		return err
	}
	fmt.Printf("outcomes %s\n", line)
	m.set("ops_per_s", float64(n)/mr.wall.Seconds(), "1/s")
	m.setMedian("op_p50_ms", millis(mr.lats[outHit]), "ms")
	return nil
}

// trace runs the schedule three times, each on a fresh daemon: one
// block untraced to warm up, then mixTraceSteps traced, and the same
// steps untraced again for the untraced numbers. It reports the service
// layers' numbers from client spans, job views and /v1/stats deltas.
func (w *hgwdMix) trace(tr *tracer, t *tally, m metrics) error {
	var un, mr *mixRun
	if _, err := w.loop(nil, t, 0, mixBlock, nil); err != nil {
		return err
	}
	for pass := 1; pass < 3; pass++ {
		w.close()
		if err := w.setUp(); err != nil {
			return err
		}
		var err error
		if pass == 1 {
			root := tr.begin("hgwd_mix.loop", 0)
			mr, err = w.loop(tr, t, 0, mixTraceSteps, nil)
			tr.end(root)
		} else {
			un, err = w.loop(nil, t, 0, mixTraceSteps, nil)
		}
		if err != nil {
			return err
		}
	}
	for o := outcome(0); o < numOutcomes; o++ {
		m.setMedian("service.latency_ms."+outcomeNames[o]+"_p50", millis(un.lats[o]), "ms")
	}
	m.setMedian("service.submit_ms", millis(mr.submit[outHit]), "ms")
	m.setMedian("service.fetch_ms", millis(mr.fetch[outHit]), "ms")
	m.setMedian("service.result_bytes", mr.resultBytes, "B")
	b, a := mr.before, mr.after
	hits := float64((a.Cache.Hits + a.Cache.DiskHits) - (b.Cache.Hits + b.Cache.DiskHits))
	m.set("service.cache_hit_ratio", hits/(hits+float64(a.Cache.Misses-b.Cache.Misses)), "ratio")
	m.setMedian("service.queue_wait_ms", millis(mr.queueWait), "ms")
	m.setMedian("service.exec_ms", mr.execMS, "ms")
	memoHits := float64((a.Memo.MemHits + a.Memo.DiskHits) - (b.Memo.MemHits + b.Memo.DiskHits))
	m.set("memo.hit_ratio", memoHits/(memoHits+float64(a.Memo.Misses-b.Memo.Misses)), "ratio")
	m.set("trace.overhead_pct.hgwd_mix", overheadPct(mr.wall, un.wall), "%")
	return nil
}
