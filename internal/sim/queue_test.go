package sim

import (
	"testing"
	"time"
)

// TestQueueFIFOAcrossCompaction drives a queue through growth,
// compaction and removal and checks it against a plain slice model.
func TestQueueFIFOAcrossCompaction(t *testing.T) {
	var q Queue[int]
	var model []int
	next := 0
	check := func() {
		t.Helper()
		got := q.Items()
		if len(got) != len(model) || q.Len() != len(model) {
			t.Fatalf("len %d, want %d", len(got), len(model))
		}
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("item %d = %d, want %d", i, got[i], model[i])
			}
		}
	}
	for round := 0; round < 200; round++ {
		batch := make([]int, round%7+1)
		for i := range batch {
			batch[i] = next
			next++
		}
		if round%2 == 0 {
			q.Append(batch)
		} else {
			for _, v := range batch {
				q.Push(v)
			}
		}
		model = append(model, batch...)
		check()
		if round%5 == 4 && q.Len() > 2 {
			q.remove(1)
			model = append(model[:1], model[2:]...)
			check()
		}
		for k := round % 4; k > 0 && len(model) > 0; k-- {
			if v := q.Pop(); v != model[0] {
				t.Fatalf("Pop = %d, want %d", v, model[0])
			}
			model = model[1:]
		}
		check()
	}
	q.Discard(q.Len())
	model = nil
	check()
}

// TestQueueSteadyStateReusesArray checks that a producer/consumer pair
// whose backlog stays bounded settles on one array: compaction, not
// growth, makes room once the array is twice the backlog.
func TestQueueSteadyStateReusesArray(t *testing.T) {
	var q Queue[byte]
	chunk := make([]byte, 100)
	for i := 0; i < 50; i++ {
		q.Append(chunk)
		if q.Len() > 1000 {
			q.Discard(q.Len() - 1000)
		}
	}
	settled := cap(q.buf)
	for i := 0; i < 1000; i++ {
		q.Append(chunk)
		q.Discard(100)
	}
	if cap(q.buf) != settled || settled > 4*1100 {
		t.Fatalf("array grew from %d to %d under a bounded backlog", settled, cap(q.buf))
	}
}

// TestChanTimedOutWaiterLeavesQueue checks that a receiver whose
// deadline passed no longer holds a place in line: the next value goes
// to a later receiver.
func TestChanTimedOutWaiterLeavesQueue(t *testing.T) {
	s := New(1)
	c := NewChan[int](s)
	var first, second bool
	var got int
	s.Spawn("impatient", func(p *Proc) {
		_, first = c.Recv(p, time.Second)
	})
	s.Spawn("patient", func(p *Proc) {
		got, second = c.Recv(p, 0)
	})
	s.After(2*time.Second, func() { c.Send(7) })
	s.Run(0)
	if first || !second || got != 7 {
		t.Fatalf("impatient ok=%v, patient ok=%v got=%d", first, second, got)
	}
	if c.waiters.Len() != 0 {
		t.Fatalf("%d waiters left queued", c.waiters.Len())
	}
}
