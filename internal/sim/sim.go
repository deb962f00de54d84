// Package sim provides a deterministic discrete-event simulator with
// virtual time and cooperatively scheduled processes.
//
// The simulator owns a virtual clock (nanosecond resolution, starting at
// zero) and a priority queue of events. Network elements (links, queues,
// NAT timers) schedule plain callback events with At or After. Active
// entities that are most naturally written as sequential code (probers,
// protocol clients) run as processes: goroutines that are scheduled
// cooperatively so that exactly one goroutine — the scheduler or a single
// process — runs at any moment. This gives race-free, fully reproducible
// runs: the same program always produces the same event ordering, and a
// simulated 24-hour experiment completes in milliseconds of wall time.
//
// Processes block only through the simulator's own primitives (Sleep,
// Chan.Recv, Join). Blocking on anything else would stall the scheduler.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"hgw/internal/obs"
)

// Time is an absolute instant on the simulator's virtual clock, expressed
// as the duration since the start of the simulation.
type Time = time.Duration

// eventRec is one slab slot of the event queue. Slots are recycled
// through a free list; gen distinguishes the current occupant from
// stale Event handles that still point at the slot.
type eventRec struct {
	fn  func()
	gen uint32
	pos int32 // the event's index in Sim.heap
}

// heapEntry is one event in the queue's heap. The ordering key is
// stored inline, so sifting compares entries without touching the
// slab.
type heapEntry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	idx int32  // slab slot of the event's callback
}

// before orders heap entries by (at, seq).
func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Event is a handle to a scheduled callback that can be canceled. The
// zero value is an invalid handle on which Cancel and Canceled are
// no-ops. Handles stay valid (as no-ops) after the event fires: slab
// slots are recycled under a generation counter, so a stale handle can
// never cancel an unrelated later event.
type Event struct {
	s        *Sim
	idx      int32
	gen      uint32
	canceled bool // a Cancel through this handle removed the event
}

// Cancel prevents the event's callback from running and removes it
// from the queue at once. Canceling an event that already fired (or
// was already canceled) is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.s == nil {
		return
	}
	s := e.s
	rec := &s.slab[e.idx]
	if rec.gen != e.gen {
		return // already fired or canceled, and recycled
	}
	e.canceled = true
	s.heapRemove(int(rec.pos))
	s.recycle(e.idx)
	s.obs.Inc(obs.CSimEventsCanceled)
}

// Canceled reports whether a Cancel made through this handle removed
// the event. Event is a value: a copy taken before the Cancel does not
// see it, and reports false.
func (e *Event) Canceled() bool {
	return e != nil && e.canceled
}

// Sim is a discrete-event simulator instance. The zero value is not
// usable; create one with New.
type Sim struct {
	now         Time
	seq         uint64
	slab        []eventRec  // event callbacks, indexed by heap entries
	free        []int32     // recycled slab slots
	heap        []heapEntry // binary min-heap of the scheduled events
	rng         *rand.Rand
	token       chan struct{} // returned to the scheduler when a process parks or exits
	procs       int           // live (not yet exited) processes
	parked      int           // processes currently parked
	stopped     bool
	running     bool
	interrupt   func() bool // polled between events; true aborts the run
	interrupted bool
	killing     bool          // Shutdown in progress: parked processes die on wake
	all         []*Proc       // every spawned process, for Shutdown
	label       func() string // optional diagnostics
	// obs is the telemetry registry this simulator writes (nil = no
	// telemetry; every write is a nil-safe no-op). The simulator only
	// ever writes it — reading telemetry back into scheduling would
	// break the equal-seed contract, and obslint forbids it.
	obs *obs.Registry
}

// New returns a simulator whose random source is seeded with seed.
// The same seed always yields the same simulation trajectory.
func New(seed int64) *Sim {
	return &Sim{
		rng:   rand.New(rand.NewSource(seed)),
		token: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// SetObs installs the telemetry registry the simulator (and the layers
// it drives: the NAT engines reach it through Obs) writes event
// counters into. Install it at construction time, before any events
// are scheduled; nil disables telemetry (the default).
func (s *Sim) SetObs(r *obs.Registry) { s.obs = r }

// Obs returns the simulator's telemetry registry (nil when telemetry
// is off). Layers sharing the simulator use it as their write handle;
// the registry's write API is nil-safe, so callers never check.
func (s *Sim) Obs() *obs.Registry { return s.obs }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// After schedules fn to run after delay d (non-negative) and returns a
// cancelable handle.
func (s *Sim) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn to run at absolute virtual time t. Times in the past
// are clamped to the current time. Scheduling is allocation-free in
// steady state: callbacks live in a slab recycled through a free list,
// and the returned Event is a value handle.
func (s *Sim) At(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slab = append(s.slab, eventRec{gen: 1})
		idx = int32(len(s.slab) - 1)
		s.obs.GaugeSet(obs.GSimSlabSlots, int64(len(s.slab)))
	}
	s.slab[idx].fn = fn
	s.heap = append(s.heap, heapEntry{})
	s.siftUp(len(s.heap)-1, heapEntry{at: t, seq: s.seq, idx: idx})
	s.obs.Inc(obs.CSimEventsScheduled)
	return Event{s: s, idx: idx, gen: s.slab[idx].gen}
}

// recycle returns a slab slot to the free list. Bumping gen invalidates
// every outstanding Event handle to the slot.
func (s *Sim) recycle(idx int32) {
	rec := &s.slab[idx]
	rec.fn = nil
	rec.gen++
	s.free = append(s.free, idx)
}

// place stores e at heap index i and records the position in its slab
// slot.
func (s *Sim) place(i int, e heapEntry) {
	s.heap[i] = e
	s.slab[e.idx].pos = int32(i)
}

// siftUp places e at heap index i (a hole) or above it, moving larger
// parents down.
func (s *Sim) siftUp(i int, e heapEntry) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		s.place(i, h[p])
		i = p
	}
	s.place(i, e)
}

// siftDown places e at heap index i (a hole) or below it, moving
// smaller children up.
func (s *Sim) siftDown(i int, e heapEntry) {
	h := s.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		s.place(i, h[c])
		i = c
	}
	s.place(i, e)
}

// heapRemove deletes the entry at heap index i: the last entry fills
// the hole and sifts whichever way restores the heap order.
func (s *Sim) heapRemove(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&s.heap[(i-1)/2]) {
		s.siftUp(i, last)
	} else {
		s.siftDown(i, last)
	}
}

// Stop makes Run return after the currently executing event completes.
func (s *Sim) Stop() { s.stopped = true }

// interruptPollInterval bounds how many events Run executes between
// interrupt polls. The poll closure typically checks wall-clock state
// (a context), so polling per event would dominate small event
// callbacks; every 1024 events keeps the overhead unmeasurable while
// still aborting within microseconds of wall time.
const interruptPollInterval = 1024

// SetInterrupt installs fn, polled between events while Run executes:
// when it returns true the run aborts and Interrupted reports true
// until the next SetInterrupt call. A nil fn clears the interrupt.
// Drivers use it to abandon a simulation from wall-clock context (e.g.
// context cancellation) without waiting for the event queue to drain.
// An interrupted simulation is mid-flight — processes are parked and
// events are pending — so its state must be discarded, not resumed.
// SetInterrupt must be called from the goroutine that calls Run.
func (s *Sim) SetInterrupt(fn func() bool) {
	s.interrupt = fn
	s.interrupted = false
}

// Interrupted reports whether the last Run aborted because the
// installed interrupt fired.
func (s *Sim) Interrupted() bool { return s.interrupted }

// Run executes events in timestamp order until no events remain, the
// horizon (if positive) is reached, or Stop is called. It returns the
// virtual time at which the simulation ended.
//
// When the event queue drains while processes are still parked, the
// simulation simply ends (the processes are blocked forever); Stalled
// reports how many.
func (s *Sim) Run(horizon time.Duration) Time {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	sincePoll := 0
	for !s.stopped && len(s.heap) > 0 {
		if s.interrupt != nil {
			if sincePoll++; sincePoll >= interruptPollInterval {
				sincePoll = 0
				if s.interrupt() {
					s.interrupted = true
					return s.now
				}
			}
		}
		top := s.heap[0]
		if horizon > 0 && top.at > horizon {
			// Leave it queued for a potential later Run call.
			s.now = horizon
			return s.now
		}
		fn := s.slab[top.idx].fn
		s.heapRemove(0)
		s.recycle(top.idx)
		s.now = top.at
		s.obs.Inc(obs.CSimEventsFired)
		fn()
	}
	return s.now
}

// Stalled returns the number of processes parked with no pending wake
// event. It is only meaningful after Run returns.
func (s *Sim) Stalled() int { return s.parked }

// Pending returns the number of scheduled (uncanceled) events. It is
// O(1): the heap holds exactly those events, so hot progress paths can
// poll it freely.
func (s *Sim) Pending() int { return len(s.heap) }

// A Proc is a cooperatively scheduled simulator process. All methods
// must be called from the process's own goroutine.
type Proc struct {
	s       *Sim
	name    string
	resume  chan struct{}
	started bool // the spawn event fired: a goroutine owns this process
	exited  bool
	joiners []*Proc
	// wakeArmed guards against double wake-ups: each park consumes
	// exactly one wake.
	wakeArmed bool
	// handoffFn/wakeFn cache the method values scheduled on every wake
	// and sleep, so the per-event closure allocation happens once per
	// process instead of once per park.
	handoffFn func()
	wakeFn    func()
	// poll is made on the process's first SleepWhile: few processes
	// ever poll, so Spawn does not pay for it.
	poll *pollState
}

// pollState is a process's SleepWhile state: the condition and period
// of the wait in progress, and the cached method values of its two
// events.
type pollState struct {
	busy            func() bool
	every           time.Duration
	tickFn, checkFn func()
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator the process belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn starts fn as a new simulator process at the current virtual
// time. fn begins executing when the scheduler reaches the start event.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, resume: make(chan struct{})}
	p.handoffFn = p.handoff
	p.wakeFn = p.scheduleWake
	s.procs++
	s.obs.Inc(obs.CSimProcsSpawned)
	s.all = append(s.all, p)
	s.At(s.now, func() {
		p.started = true
		go func() {
			// The process-goroutine gauge brackets the goroutine's whole
			// life; Down runs before the final token send so the count is
			// back at baseline by the time Run or Shutdown returns (the
			// goroutine-leak tripwire test depends on that ordering).
			obs.Proc.SimProcUp()
			<-p.resume
			runProc(fn, p)
			p.exited = true
			s.procs--
			for _, j := range p.joiners {
				j.scheduleWake()
			}
			p.joiners = nil
			obs.Proc.SimProcDown()
			s.token <- struct{}{}
		}()
		p.handoff()
	})
	return p
}

// procKilled is the panic sentinel Shutdown throws through a parked
// process to unwind its goroutine.
type procKilled struct{}

// runProc runs the process body, absorbing the Shutdown kill panic so
// the exit bookkeeping in Spawn's goroutine still runs.
func runProc(fn func(p *Proc), p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(r)
			}
		}
	}()
	fn(p)
}

// Shutdown unwinds every live process goroutine. A simulation that ends
// with processes still parked — servers park forever by design, and an
// interrupted or horizon-bounded run parks everything mid-flight —
// leaves those goroutines blocked on channels the scheduler will never
// signal again; the Go runtime does not collect blocked goroutines, so
// each would pin its stack and everything reachable from it (transitively,
// the whole simulation) for the life of the program. Callers that drop a
// simulator before process exit MUST call Shutdown first; ephemeral fleet
// shards are the high-volume case.
//
// Shutdown wakes each parked process into a panic that unwinds its
// goroutine (deferred cleanup in process bodies runs normally). The
// simulator must not be resumed afterwards. Calling Shutdown again, or
// on a fully exited simulation, is a no-op.
func (s *Sim) Shutdown() {
	if s.running {
		panic("sim: Shutdown called during Run")
	}
	s.killing = true
	for _, p := range s.all {
		if !p.started || p.exited {
			// Never-started processes have no goroutine: their spawn
			// event never fired.
			continue
		}
		// Between events every live started process is blocked in
		// park() on resume; the kill panic unwinds it and the exit
		// path returns the scheduler token.
		p.resume <- struct{}{}
		<-s.token
	}
	s.all = nil
}

// handoff transfers control to the process goroutine and blocks until it
// parks again or exits. It must run in scheduler (event callback) context.
func (p *Proc) handoff() {
	p.resume <- struct{}{}
	<-p.s.token
}

// park yields control back to the scheduler until the process is woken.
// Exactly one wake must be armed (scheduled) per park.
func (p *Proc) park() {
	if p.s.killing {
		// Refuses re-parking from deferred cleanup while this process
		// is being unwound by Shutdown; a re-park would strand the
		// goroutine forever.
		panic(procKilled{})
	}
	p.s.parked++
	p.wakeArmed = true
	p.s.token <- struct{}{}
	<-p.resume
	p.s.parked--
	if p.s.killing {
		panic(procKilled{})
	}
}

// scheduleWake arranges for the process to resume at the current virtual
// time. It is safe to call from scheduler or process context; the actual
// handoff happens in a fresh event. Calling it when no park is armed is
// a no-op (the waker lost a race that was already resolved).
func (p *Proc) scheduleWake() {
	if !p.wakeArmed || p.exited || p.s.killing {
		return
	}
	p.wakeArmed = false
	p.s.At(p.s.now, p.handoffFn)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Yield: reschedule after already-queued events at this instant.
		p.s.At(p.s.now, p.wakeFn)
		p.park()
		return
	}
	p.s.After(d, p.wakeFn)
	p.park()
}

// SleepWhile suspends the process while busy reports true, checking it
// every d of virtual time. It is the way to poll a condition: it
// schedules exactly the events of
//
//	for busy() {
//		p.Sleep(d)
//	}
//
// and evaluates busy at the same points of the event order, but the
// re-checks run in scheduler context, so the process goroutine is
// resumed once when busy turns false instead of once per poll. busy
// must therefore only read simulation state: it must not block, spawn,
// or schedule. A d <= 0 polls at the current instant, after the events
// already queued there, as Sleep(0) yields.
func (p *Proc) SleepWhile(d time.Duration, busy func() bool) {
	if !busy() {
		return
	}
	if p.poll == nil {
		p.poll = &pollState{}
		p.poll.tickFn, p.poll.checkFn = p.pollTick, p.pollCheck
	}
	p.poll.busy, p.poll.every = busy, d
	p.s.After(d, p.poll.tickFn)
	p.park()
	p.poll.busy = nil
}

// pollTick is SleepWhile's timer: it mirrors scheduleWake, queueing the
// check at the current instant exactly where the wake would queue the
// handoff.
func (p *Proc) pollTick() {
	if !p.wakeArmed || p.exited || p.s.killing {
		return
	}
	p.wakeArmed = false
	p.s.At(p.s.now, p.poll.checkFn)
}

// pollCheck runs where the woken process would re-evaluate its loop
// condition: still busy re-arms the timer as the process's next Sleep
// would; otherwise the process resumes.
func (p *Proc) pollCheck() {
	if p.poll.busy() {
		p.wakeArmed = true
		p.s.After(p.poll.every, p.poll.tickFn)
		return
	}
	p.handoff()
}

// Join blocks until q exits. Joining an already-exited process returns
// immediately.
func (p *Proc) Join(q *Proc) {
	if q.exited {
		return
	}
	q.joiners = append(q.joiners, p)
	p.park()
}

// Exited reports whether the process function has returned.
func (p *Proc) Exited() bool { return p.exited }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }
