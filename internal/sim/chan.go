package sim

import "time"

// Chan is an unbounded, simulator-aware FIFO channel. Senders never
// block; receivers are simulator processes that park until a value
// arrives or their deadline passes. Send may be called from event
// callbacks (scheduler context) or from processes.
//
// A waiting receiver is a chanWaiter on the waiters queue until a Send,
// Close or its timeout resolves it; a timed-out waiter leaves the queue
// at once. The waiter and its timeout callback are then recycled for
// the channel's next blocking Recv, so a steady receive loop allocates
// nothing.
type Chan[T any] struct {
	s       *Sim
	buf     Queue[T]
	waiters Queue[*chanWaiter[T]]
	spare   *chanWaiter[T]
	closed  bool
}

type chanWaiter[T any] struct {
	p        *Proc
	val      T
	ok       bool
	resolved bool
	timeout  Event
	expireFn func() // the timeout callback, bound once per waiter
}

// NewChan returns an empty channel bound to s.
func NewChan[T any](s *Sim) *Chan[T] {
	return &Chan[T]{s: s}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Send enqueues v, waking the oldest waiting receiver if any. Sending on
// a closed channel is a no-op (the value is dropped), mirroring how a
// network delivers packets to a closed socket.
func (c *Chan[T]) Send(v T) {
	if c.closed {
		return
	}
	if c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		w.val, w.ok, w.resolved = v, true, true
		w.timeout.Cancel()
		w.p.scheduleWake()
		return
	}
	c.buf.Push(v)
}

// Close marks the channel closed, waking all waiting receivers with
// ok=false. Buffered values remain receivable.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.waiters.Items() {
		w.resolved = true
		w.timeout.Cancel()
		w.p.scheduleWake()
	}
	c.waiters = Queue[*chanWaiter[T]]{}
}

// Closed reports whether Close was called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Recv dequeues the next value for process p. timeout <= 0 means wait
// forever. ok is false if the deadline passed (or the channel was closed)
// before a value arrived.
func (c *Chan[T]) Recv(p *Proc, timeout time.Duration) (v T, ok bool) {
	if c.buf.Len() > 0 {
		return c.buf.Pop(), true
	}
	if c.closed {
		return v, false
	}
	w := c.spare
	if w == nil {
		w = &chanWaiter[T]{}
	}
	c.spare = nil
	w.p = p
	if timeout > 0 {
		if w.expireFn == nil {
			w.expireFn = func() { c.expire(w) }
		}
		w.timeout = c.s.After(timeout, w.expireFn)
	}
	c.waiters.Push(w)
	p.park()
	v, ok = w.val, w.ok
	// Every reference to w is gone: Send and Close dequeued it and
	// canceled its timeout, or the timeout fired and dequeued it.
	*w = chanWaiter[T]{expireFn: w.expireFn}
	c.spare = w
	return v, ok
}

// expire resolves a waiter whose deadline passed, taking it off the
// queue.
func (c *Chan[T]) expire(w *chanWaiter[T]) {
	if w.resolved {
		return
	}
	w.resolved = true
	for i, x := range c.waiters.Items() {
		if x == w {
			c.waiters.remove(i)
			break
		}
	}
	w.p.scheduleWake()
}

// TryRecv dequeues a value without blocking.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if c.buf.Len() == 0 {
		return v, false
	}
	return c.buf.Pop(), true
}

// Drain discards all buffered values and returns how many were dropped.
func (c *Chan[T]) Drain() int {
	n := c.buf.Len()
	c.buf = Queue[T]{}
	return n
}
