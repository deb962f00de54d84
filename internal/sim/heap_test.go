package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hgw/internal/obs"
)

// eventQueue is the surface the differential driver exercises. Handles
// are numbered in scheduling order, which both queues share.
type eventQueue interface {
	at(t Time, fn func())
	after(d time.Duration, fn func())
	cancel(h int)
	canceled(h int) bool
	run(horizon time.Duration) Time
	now() Time
	pending() int
	counts() [3]uint64 // scheduled, fired, canceled
}

// simQueue is the simulator's queue behind eventQueue.
type simQueue struct {
	s   *Sim
	reg *obs.Registry
	evs []Event
}

func newSimQueue() *simQueue {
	q := &simQueue{s: New(1), reg: obs.NewRegistry()}
	q.s.SetObs(q.reg)
	return q
}

func (q *simQueue) at(t Time, fn func())             { q.evs = append(q.evs, q.s.At(t, fn)) }
func (q *simQueue) after(d time.Duration, fn func()) { q.evs = append(q.evs, q.s.After(d, fn)) }
func (q *simQueue) cancel(h int)                     { q.evs[h].Cancel() }
func (q *simQueue) canceled(h int) bool              { return q.evs[h].Canceled() }
func (q *simQueue) run(horizon time.Duration) Time   { return q.s.Run(horizon) }
func (q *simQueue) now() Time                        { return q.s.Now() }
func (q *simQueue) pending() int                     { return q.s.Pending() }
func (q *simQueue) counts() [3]uint64 {
	c := q.reg.Snapshot().Counters
	return [3]uint64{c[obs.CSimEventsScheduled], c[obs.CSimEventsFired], c[obs.CSimEventsCanceled]}
}

// oracleQueue is lazyQueue behind eventQueue.
type oracleQueue struct {
	q   lazyQueue
	evs []lazyEvent
}

func (o *oracleQueue) at(t Time, fn func())             { o.evs = append(o.evs, o.q.At(t, fn)) }
func (o *oracleQueue) after(d time.Duration, fn func()) { o.evs = append(o.evs, o.q.After(d, fn)) }
func (o *oracleQueue) cancel(h int)                     { o.evs[h].Cancel() }
func (o *oracleQueue) canceled(h int) bool              { return o.evs[h].Canceled() }
func (o *oracleQueue) run(horizon time.Duration) Time   { return o.q.Run(horizon) }
func (o *oracleQueue) now() Time                        { return o.q.now }
func (o *oracleQueue) pending() int                     { return o.q.Pending() }
func (o *oracleQueue) counts() [3]uint64 {
	return [3]uint64{o.q.scheduled, o.q.fired, o.q.cancelled}
}

// queueDelays are the delays the driver schedules with: mostly a few
// milliseconds apart, so timestamps tie often, plus the far timers
// (RTO, NAT refresh, receive timeout) that are usually canceled.
var queueDelays = [8]time.Duration{0, 0, time.Millisecond, time.Millisecond,
	2 * time.Millisecond, 3 * time.Millisecond, 200 * time.Millisecond, 2 * time.Minute}

// queueDriver runs a byte-coded operation stream against a queue and
// logs everything observable about it.
type queueDriver struct {
	q    eventQueue
	data []byte
	n    int // handles scheduled
	log  []string
	step func() // called after every operation; nil for none
	// timers holds, plus one, the handles of four far timers that are
	// re-armed (canceled and scheduled again) as NAT refreshes and
	// RTOs are; 0 is unarmed.
	timers [4]int
}

func (d *queueDriver) next() (byte, bool) {
	if len(d.data) == 0 {
		return 0, false
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b, true
}

func (d *queueDriver) logf(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

func (d *queueDriver) stepped() {
	if d.step != nil {
		d.step()
	}
}

// fire is the callback of handle h: it logs the firing and may schedule
// or cancel, including a (stale) cancel of h itself.
func (d *queueDriver) fire(h int) func() {
	return func() {
		d.logf("fire %d at %v", h, d.q.now())
		d.stepped()
		b, ok := d.next()
		if !ok {
			return
		}
		switch b % 4 {
		case 0:
			d.schedule(b >> 2)
		case 1:
			d.cancel(int(b >> 2))
		case 2:
			d.q.cancel(h)
			d.logf("self-cancel %d: canceled %v", h, d.q.canceled(h))
			d.stepped()
		}
	}
}

// schedule adds one event. arg picks the delay and whether it goes
// through At, At in the past, or After with a negative delay.
func (d *queueDriver) schedule(arg byte) {
	delay := queueDelays[arg%8]
	h := d.n
	d.n++
	switch (arg >> 3) % 4 {
	case 0, 1:
		d.q.at(d.q.now()+delay, d.fire(h))
	case 2:
		d.q.at(d.q.now()-delay, d.fire(h))
	case 3:
		d.q.after(delay-time.Millisecond, d.fire(h))
	}
	d.stepped()
}

// cancel cancels a handle that may be pending, fired, or canceled:
// mostly one of the 64 latest, which are likely still pending.
func (d *queueDriver) cancel(arg int) {
	if d.n == 0 {
		return
	}
	h := arg % d.n
	if arg < 192 {
		h = d.n - 1 - arg%min(d.n, 64)
	}
	d.cancelHandle(h)
}

func (d *queueDriver) cancelHandle(h int) {
	d.q.cancel(h)
	d.logf("cancel %d: canceled %v pending %d", h, d.q.canceled(h), d.q.pending())
	d.stepped()
}

// rearm cancels one of the far timers, if armed, and schedules it
// again 200 ms or 2 min out.
func (d *queueDriver) rearm(arg byte) {
	k := arg % 4
	if h := d.timers[k] - 1; h >= 0 {
		d.cancelHandle(h)
	}
	d.timers[k] = d.n + 1
	d.schedule(6 + arg>>2%2)
}

// drive runs the whole stream, then drains the queue.
func (d *queueDriver) drive() []string {
	for {
		op, ok := d.next()
		if !ok {
			break
		}
		arg, _ := d.next()
		switch op % 16 {
		case 15:
			horizon := d.q.now() + queueDelays[arg%8]
			end := d.q.run(horizon)
			d.logf("run %v: end %v pending %d counts %v", horizon, end, d.q.pending(), d.q.counts())
		case 12, 13, 14:
			d.cancel(int(arg))
		case 9, 10:
			d.rearm(arg)
		case 11:
			d.logf("canceled %v", d.n > 0 && d.q.canceled(int(arg)%d.n))
		default:
			d.schedule(arg)
		}
	}
	end := d.q.run(0)
	d.logf("drain: end %v pending %d counts %v", end, d.q.pending(), d.q.counts())
	return d.log
}

// checkHeap verifies the simulator's queue structure: the heap holds
// exactly the pending events in (at, seq) heap order, every entry's
// slab slot records its position, and every slab slot is either in the
// heap or on the free list, once.
func checkHeap(s *Sim) error {
	if s.obs != nil {
		c := s.obs.Snapshot().Counters
		live := c[obs.CSimEventsScheduled] - c[obs.CSimEventsFired] - c[obs.CSimEventsCanceled]
		if uint64(len(s.heap)) != live {
			return fmt.Errorf("heap holds %d entries, %d events are pending", len(s.heap), live)
		}
	}
	held := make([]bool, len(s.slab))
	for i := range s.heap {
		e := &s.heap[i]
		if i > 0 && e.before(&s.heap[(i-1)/2]) {
			return fmt.Errorf("heap entry %d sorts before its parent", i)
		}
		if pos := s.slab[e.idx].pos; pos != int32(i) {
			return fmt.Errorf("heap entry %d: slab slot %d records position %d", i, e.idx, pos)
		}
		if held[e.idx] {
			return fmt.Errorf("slab slot %d is in the heap twice", e.idx)
		}
		held[e.idx] = true
	}
	for _, idx := range s.free {
		if held[idx] {
			return fmt.Errorf("slab slot %d is both queued and free", idx)
		}
		held[idx] = true
	}
	if n := len(s.heap) + len(s.free); n != len(s.slab) {
		return fmt.Errorf("heap %d + free %d slots, slab has %d", len(s.heap), len(s.free), len(s.slab))
	}
	return nil
}

// diffQueues runs data against the simulator's queue and the lazy
// oracle and fails t on the first difference. It returns how many
// compactions the oracle made, so callers can see that the stream
// reached one.
func diffQueues(t *testing.T, data []byte) int {
	t.Helper()
	sq := newSimQueue()
	var heapErr error
	got := (&queueDriver{q: sq, data: data, step: func() {
		if heapErr == nil {
			heapErr = checkHeap(sq.s)
		}
	}}).drive()
	if heapErr != nil {
		t.Fatal(heapErr)
	}
	oq := &oracleQueue{}
	want := (&queueDriver{q: oq, data: data}).drive()
	for i := range max(len(got), len(want)) {
		if logLine(got, i) != logLine(want, i) {
			t.Fatalf("queues diverge at log line %d:\n  eager: %s\n  lazy:  %s", i, logLine(got, i), logLine(want, i))
		}
	}
	return oq.q.compactions
}

func logLine(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end>"
}

// TestEventQueueMatchesLazyHeap is the differential test: seeded random
// streams of At, After, Cancel (stale and double included) and
// Run(horizon), with many timestamp ties, give the same fire order,
// Canceled, Pending, Now and sim_* counters on the eager heap as on the
// lazy-cancel oracle.
func TestEventQueueMatchesLazyHeap(t *testing.T) {
	compactions := 0
	for seed := int64(0); seed < 200; seed++ {
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		compactions += diffQueues(t, data)
	}
	if compactions == 0 {
		t.Fatal("no stream made the oracle compact; the streams do not cancel enough")
	}
	t.Logf("the oracle compacted %d times", compactions)
}

// FuzzEventQueue runs the differential driver on arbitrary streams. Its
// seed corpus is in testdata/fuzz/FuzzEventQueue.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("long streams add nothing short ones miss")
		}
		diffQueues(t, data)
	})
}

// TestHeapHoldsOnlyPending checks, after every schedule, cancel and
// fire, that the heap holds exactly the pending events: a cancel takes
// its entry out at once rather than leaving it for a later drain.
func TestHeapHoldsOnlyPending(t *testing.T) {
	q := newSimQueue()
	check := func(when string) {
		t.Helper()
		if err := checkHeap(q.s); err != nil {
			t.Fatalf("after %s: %v", when, err)
		}
		if len(q.s.heap) != q.s.Pending() {
			t.Fatalf("after %s: heap length %d, Pending %d", when, len(q.s.heap), q.s.Pending())
		}
	}
	var fired []int
	const n = 1024
	for i := 0; i < n; i++ {
		q.after(time.Duration(i%97)*time.Millisecond, func() {
			fired = append(fired, i)
			check("fire")
		})
		check("schedule")
	}
	// Cancel all but every 64th event, from the middle of the heap out.
	want := []int{}
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			want = append(want, i)
			continue
		}
		q.cancel(i)
		check("cancel")
	}
	if got := len(q.s.heap); got != len(want) {
		t.Fatalf("heap holds %d entries after cancels, want %d", got, len(want))
	}
	q.run(0)
	slices.SortStableFunc(want, func(a, b int) int { return a%97 - b%97 })
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestCanceledCopiedHandle pins Canceled on copies of one handle: it
// reports a Cancel made through that handle only, never one made
// through a copy.
func TestCanceledCopiedHandle(t *testing.T) {
	s := New(1)
	a := s.After(time.Second, func() { t.Fatal("canceled event fired") })
	b := a
	a.Cancel()
	if !a.Canceled() {
		t.Fatal("the handle Cancel went through reports Canceled false")
	}
	if b.Canceled() {
		t.Fatal("a copy taken before Cancel reports Canceled true")
	}
	b.Cancel() // stale: the slot is already recycled
	if b.Canceled() {
		t.Fatal("a stale Cancel through the copy reports Canceled true")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", s.Pending())
	}
	s.Run(0)
}
