package sim

import "time"

// lazyQueue is the event queue the simulator had before Cancel removed
// heap entries eagerly, kept as a test oracle: a binary min-heap of slab
// indices keyed by (at, seq) in the slab, canceled records left in the
// heap until they reach the root, and an O(n) compaction once they are
// more than half of it. Its fire order, Pending, Now and counters are
// what the eager queue must reproduce.
type lazyQueue struct {
	now                         Time
	seq                         uint64
	slab                        []lazyRec
	free                        []int32
	heap                        []int32
	live, dead                  int
	scheduled, fired, cancelled uint64
	compactions                 int
}

type lazyRec struct {
	at       Time
	seq      uint64
	fn       func()
	gen      uint32
	canceled bool
}

type lazyEvent struct {
	q        *lazyQueue
	idx      int32
	gen      uint32
	canceled bool
}

func (e *lazyEvent) Cancel() {
	if e.q == nil {
		return
	}
	rec := &e.q.slab[e.idx]
	if rec.gen != e.gen {
		return
	}
	e.canceled = true
	if rec.canceled {
		return
	}
	rec.canceled = true
	rec.fn = nil
	e.q.live--
	e.q.dead++
	e.q.cancelled++
	e.q.maybeCompact()
}

func (e *lazyEvent) Canceled() bool {
	if e.q == nil {
		return false
	}
	if e.canceled {
		return true
	}
	rec := &e.q.slab[e.idx]
	return rec.gen == e.gen && rec.canceled
}

func (q *lazyQueue) After(d time.Duration, fn func()) lazyEvent {
	if d < 0 {
		d = 0
	}
	return q.At(q.now+d, fn)
}

func (q *lazyQueue) At(t Time, fn func()) lazyEvent {
	if t < q.now {
		t = q.now
	}
	q.seq++
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slab = append(q.slab, lazyRec{gen: 1})
		idx = int32(len(q.slab) - 1)
	}
	rec := &q.slab[idx]
	rec.at, rec.seq, rec.fn, rec.canceled = t, q.seq, fn, false
	q.push(idx)
	q.live++
	q.scheduled++
	return lazyEvent{q: q, idx: idx, gen: rec.gen}
}

func (q *lazyQueue) recycle(idx int32) {
	rec := &q.slab[idx]
	rec.fn = nil
	rec.gen++
	q.free = append(q.free, idx)
}

func (q *lazyQueue) less(a, b int32) bool {
	ra, rb := &q.slab[a], &q.slab[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

func (q *lazyQueue) push(idx int32) {
	q.heap = append(q.heap, idx)
	h := q.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *lazyQueue) popMin() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 1 {
		q.siftDown(0)
	}
}

func (q *lazyQueue) siftDown(i int) {
	h := q.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && q.less(h[r], h[l]) {
			m = r
		}
		if !q.less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (q *lazyQueue) maybeCompact() {
	if q.dead < 64 || q.dead*2 <= len(q.heap) {
		return
	}
	q.compactions++
	kept := q.heap[:0]
	for _, idx := range q.heap {
		if q.slab[idx].canceled {
			q.recycle(idx)
		} else {
			kept = append(kept, idx)
		}
	}
	q.heap = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	q.dead = 0
}

func (q *lazyQueue) Run(horizon time.Duration) Time {
	for len(q.heap) > 0 {
		idx := q.heap[0]
		rec := &q.slab[idx]
		if rec.canceled {
			q.popMin()
			q.dead--
			q.recycle(idx)
			continue
		}
		if horizon > 0 && rec.at > horizon {
			q.now = horizon
			return q.now
		}
		at, fn := rec.at, rec.fn
		q.popMin()
		q.live--
		q.recycle(idx)
		q.now = at
		q.fired++
		fn()
	}
	return q.now
}

func (q *lazyQueue) Pending() int { return q.live }
