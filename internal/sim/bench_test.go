package sim

import (
	"testing"
	"time"
)

// BenchmarkEventChurn is the simulator's hot loop in isolation: schedule
// a batch of events, fire them all, repeat. Every packet hop in the
// testbed is a handful of these operations, so allocs/op here multiply
// into every figure regeneration.
func BenchmarkEventChurn(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			s.After(time.Duration(j)*time.Microsecond, fn)
		}
		s.Run(0)
	}
}

// BenchmarkScheduleCancel measures the schedule-then-cancel pattern of
// NAT binding timers and TCP retransmission timers: most armed timers
// never fire because traffic refreshes them first.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			ev := s.After(time.Duration(j+1)*time.Second, fn)
			ev.Cancel()
		}
		// Drain the canceled records so the queue stays in steady state.
		s.Run(0)
	}
}

// BenchmarkTimerRefresh is the worst-case NAT pattern: a long-lived
// binding whose timer is re-armed (cancel + schedule) on every packet
// while other events fire around it.
func BenchmarkTimerRefresh(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timer := s.After(time.Hour, fn)
		for j := 0; j < 32; j++ {
			s.After(time.Duration(j)*time.Microsecond, fn)
			timer.Cancel()
			timer = s.After(time.Hour, fn)
		}
		timer.Cancel()
		s.Run(0)
	}
}

// benchmarkPoll measures one poll period of a process waiting on a
// condition that stays true: a timer event and a re-check per op.
func benchmarkPoll(b *testing.B, wait func(p *Proc, busy func() bool)) {
	const d = 200 * time.Microsecond
	s := New(1)
	busy := true
	s.Spawn("poller", func(p *Proc) { wait(p, func() bool { return busy }) })
	s.Run(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + d)
	}
	b.StopTimer()
	busy = false
	s.Run(0)
}

// BenchmarkSleepLoop is polling as `for busy() { p.Sleep(d) }`: every
// period resumes the process goroutine to re-check.
func BenchmarkSleepLoop(b *testing.B) {
	benchmarkPoll(b, func(p *Proc, busy func() bool) {
		for busy() {
			p.Sleep(200 * time.Microsecond)
		}
	})
}

// BenchmarkSleepWhile is the same wait through SleepWhile: the
// re-check runs in scheduler context and the goroutine stays parked.
func BenchmarkSleepWhile(b *testing.B) {
	benchmarkPoll(b, func(p *Proc, busy func() bool) { p.SleepWhile(200*time.Microsecond, busy) })
}

// BenchmarkQueueMix is the queue traffic of a TCP bulk transfer: about
// 12 near-term events in flight (segments, ACKs, wakes) and three far
// timers per connection (RTO, receive timeout, NAT refresh), each
// re-armed by every event its connection fires. One op is one fired
// near-term event and its three re-arms.
func BenchmarkQueueMix(b *testing.B) {
	const conns, inFlight = 4, 12
	far := [3]time.Duration{time.Second, 2 * time.Minute, 5 * time.Minute}
	s := New(1)
	nop := func() {}
	timers := make([][3]Event, conns)
	left := 0
	var fire [inFlight]func()
	for i := range fire {
		c := &timers[i%conns]
		gap := time.Duration(1+i%3) * time.Microsecond
		fire[i] = func() {
			for k := range c {
				c[k].Cancel()
				c[k] = s.After(far[k], nop)
			}
			if left > 0 {
				left--
				s.After(gap, fire[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N
	for i := range fire {
		s.After(0, fire[i])
	}
	s.Run(0)
}
