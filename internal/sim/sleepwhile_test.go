package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hgw/internal/obs"
)

const pollEvery = 200 * time.Microsecond

// pollFlip sets the polled condition to busy at time at. late flips
// are queued from an event half a period earlier, so at a poll instant
// they fire after that instant's tick (higher seq); the others are
// queued at setup and fire before it.
type pollFlip struct {
	at   Time
	busy bool
	late bool
}

// pollRun is what one run of a polling scenario observed.
type pollRun struct {
	trace    []string // flips, busy evaluations and wakes, with times
	wakes    []Time
	counters [3]uint64 // sim events scheduled, fired, canceled
	seq      uint64
	end      Time
	// procPolls counts busy evaluations made while the waiting process
	// was running rather than parked: one per wait when the re-checks
	// run in scheduler context.
	procPolls int
}

// sleepLoop is the polling loop SleepWhile must reproduce.
func sleepLoop(p *Proc, d time.Duration, busy func() bool) {
	for busy() {
		p.Sleep(d)
	}
}

// runPollScenario runs one process that waits three times for the
// waits, while the events that events queues set the condition.
// waits, while the events queues set the condition.
func runPollScenario(seed int64, d time.Duration, events func(s *Sim, set func(busy bool)), wait func(p *Proc, d time.Duration, busy func() bool)) pollRun {
	s := New(seed)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	var r pollRun
	state := true
	events(s, func(busy bool) {
		state = busy
		r.trace = append(r.trace, fmt.Sprintf("%v set %v", s.Now(), busy))
	})
	// A canceled timer, so the canceled counter is compared too.
	ev := s.At(time.Second, func() {})
	s.At(pollEvery, ev.Cancel)
	busy := func() bool {
		if s.parked == 0 {
			r.procPolls++
		}
		r.trace = append(r.trace, fmt.Sprintf("%v busy %v", s.Now(), state))
		return state
	}
	s.Spawn("poller", func(p *Proc) {
		for i := 0; i < 3; i++ {
			wait(p, d, busy)
			r.wakes = append(r.wakes, p.Now())
			r.trace = append(r.trace, fmt.Sprintf("%v wake", p.Now()))
			p.Sleep(pollEvery)
		}
	})
	r.end = s.Run(0)
	snap := reg.Snapshot()
	r.counters = [3]uint64{snap.Counters[obs.CSimEventsScheduled],
		snap.Counters[obs.CSimEventsFired], snap.Counters[obs.CSimEventsCanceled]}
	r.seq = s.seq
	return r
}

// flipEvents queues the flips: a late flip from an event half a period
// before it, the others at setup.
func flipEvents(flips []pollFlip) func(s *Sim, set func(bool)) {
	return func(s *Sim, set func(bool)) {
		for _, f := range flips {
			flip := func() { set(f.busy) }
			if f.late {
				s.At(f.at-pollEvery/2, func() { s.At(f.at, flip) })
			} else {
				s.At(f.at, flip)
			}
		}
	}
}

// yieldEvents keeps the condition set at each of the three wait
// instants until a chain of same-instant events clears it, so a wait
// polling with d <= 0 ends at the instant it began, its polls
// interleaved with the chain by seq.
func yieldEvents(s *Sim, set func(bool)) {
	for i, n := range []int{3, 1, 4} {
		at := Time(i) * pollEvery
		left := n
		var step func()
		step = func() {
			if left--; left > 0 {
				set(true)
				s.At(at, step)
				return
			}
			set(false)
		}
		s.At(at, func() {
			set(true)
			s.At(at, step)
		})
	}
}

// randomFlips draws flips between poll instants and exactly at them,
// queued both before and after the instant's tick, and clears the
// condition for good at the end.
func randomFlips(rng *rand.Rand) []pollFlip {
	var flips []pollFlip
	for i := 0; i < 40; i++ {
		at := Time(1+rng.Intn(60)) * pollEvery
		f := pollFlip{busy: rng.Intn(3) > 0}
		switch rng.Intn(3) {
		case 0:
			f.at = at - Time(1+rng.Intn(199))*time.Microsecond
		case 1:
			f.at = at
		case 2:
			f.at, f.late = at, true
		}
		flips = append(flips, f)
	}
	return append(flips, pollFlip{at: 70 * pollEvery})
}

func comparePollRuns(t *testing.T, name string, loop, sw pollRun) {
	t.Helper()
	if !slices.Equal(sw.wakes, loop.wakes) {
		t.Errorf("%s: wakes %v, Sleep loop %v", name, sw.wakes, loop.wakes)
	}
	if sw.counters != loop.counters {
		t.Errorf("%s: scheduled/fired/canceled %v, Sleep loop %v", name, sw.counters, loop.counters)
	}
	if sw.seq != loop.seq || sw.end != loop.end {
		t.Errorf("%s: seq %d end %v, Sleep loop seq %d end %v", name, sw.seq, sw.end, loop.seq, loop.end)
	}
	if !slices.Equal(sw.trace, loop.trace) {
		for i := range min(len(sw.trace), len(loop.trace)) {
			if sw.trace[i] != loop.trace[i] {
				t.Errorf("%s: trace diverges at %d: %q, Sleep loop %q", name, i, sw.trace[i], loop.trace[i])
				break
			}
		}
		t.Errorf("%s: trace has %d entries, Sleep loop %d", name, len(sw.trace), len(loop.trace))
	}
	if sw.procPolls != len(sw.wakes) {
		t.Errorf("%s: process resumed for %d polls over %d waits, want one per wait", name, sw.procPolls, len(sw.wakes))
	}
}

// TestSleepWhileMatchesSleepLoop checks that SleepWhile schedules,
// fires and orders exactly the events of the Sleep loop it replaces,
// and evaluates the condition at the same points, while resuming the
// process once per wait.
func TestSleepWhileMatchesSleepLoop(t *testing.T) {
	sleepWhile := func(p *Proc, d time.Duration, busy func() bool) { p.SleepWhile(d, busy) }

	// At 3 and 6 periods a flip queued after the tick clears busy (at 3
	// after one queued before the tick set it): the check runs after
	// both, so the waits end at those instants, not a period later.
	tie := []pollFlip{
		{at: 3 * pollEvery, busy: true},
		{at: 3 * pollEvery, busy: false, late: true},
		{at: 3*pollEvery + pollEvery/2, busy: true},
		{at: 6 * pollEvery, busy: false, late: true},
		{at: 6*pollEvery + pollEvery/2, busy: true},
		{at: 9 * pollEvery, busy: false},
	}
	loop := runPollScenario(1, pollEvery, flipEvents(tie), sleepLoop)
	if want := []Time{3 * pollEvery, 6 * pollEvery, 9 * pollEvery}; !slices.Equal(loop.wakes, want) {
		t.Fatalf("Sleep loop wakes %v, want %v", loop.wakes, want)
	}
	comparePollRuns(t, "tie", loop, runPollScenario(1, pollEvery, flipEvents(tie), sleepWhile))

	for seed := int64(1); seed <= 20; seed++ {
		events := flipEvents(randomFlips(rand.New(rand.NewSource(seed))))
		loop := runPollScenario(seed, pollEvery, events, sleepLoop)
		if loop.procPolls <= len(loop.wakes) {
			t.Fatalf("seed %d: the Sleep loop never polled twice; the scenario exercises nothing", seed)
		}
		comparePollRuns(t, fmt.Sprintf("seed %d", seed), loop, runPollScenario(seed, pollEvery, events, sleepWhile))
	}

	// A period of zero or less polls at the current instant, as
	// Sleep(0) yields.
	for _, d := range []time.Duration{0, -pollEvery} {
		loop := runPollScenario(1, d, yieldEvents, sleepLoop)
		if want := []Time{0, pollEvery, 2 * pollEvery}; !slices.Equal(loop.wakes, want) {
			t.Fatalf("d=%v: Sleep loop wakes %v, want %v", d, loop.wakes, want)
		}
		if loop.procPolls <= len(loop.wakes) {
			t.Fatalf("d=%v: the Sleep loop never polled twice; the scenario exercises nothing", d)
		}
		comparePollRuns(t, fmt.Sprintf("d=%v", d), loop, runPollScenario(1, d, yieldEvents, sleepWhile))
	}
}

// TestAllocsSleepWhile pins SleepWhile's steady state: each poll period
// fires a tick and a check from cached callbacks and must not allocate.
func TestAllocsSleepWhile(t *testing.T) {
	s := New(1)
	busy := true
	s.Spawn("poller", func(p *Proc) {
		p.SleepWhile(pollEvery, func() bool { return busy })
	})
	s.Run(pollEvery)
	if n := testing.AllocsPerRun(100, func() {
		s.Run(s.Now() + pollEvery)
	}); n != 0 {
		t.Fatalf("SleepWhile allocates %.1f objects per poll tick, want 0", n)
	}
	busy = false
	s.Run(0)
	if s.procs != 0 {
		t.Fatalf("poller did not exit once the condition cleared")
	}
}

// TestShutdownReleasesSleepWhile is the goroutine tripwire for a
// process parked in SleepWhile: its pending tick must not keep the
// goroutine alive past Shutdown.
func TestShutdownReleasesSleepWhile(t *testing.T) {
	baseline := settledGoroutines()
	s := New(1)
	const procs = 8
	cleaned := 0
	for i := 0; i < procs; i++ {
		s.Spawn("poller", func(p *Proc) {
			defer func() { cleaned++ }()
			p.SleepWhile(pollEvery, func() bool { return true })
		})
	}
	s.Run(time.Second)
	if s.Stalled() != procs {
		t.Fatalf("stalled = %d, want %d", s.Stalled(), procs)
	}
	s.Shutdown()
	if n := countGoroutines(baseline); n > baseline {
		t.Errorf("goroutines after Shutdown = %d, baseline %d: pollers leaked", n, baseline)
	}
	if cleaned != procs {
		t.Errorf("deferred cleanup ran in %d/%d killed pollers", cleaned, procs)
	}
}
