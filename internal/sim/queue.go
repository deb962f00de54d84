package sim

// Queue is a FIFO of values in one backing array. Consuming from the
// front advances a head index. An append that runs out of tail room
// first copies the live values down to the front, and grows the array
// only when they would fill more than half of it, so copying stays
// amortized O(1) per value and a steady producer/consumer pair reuses
// one array for good. The zero value is an empty queue holding no
// memory: the array is allocated on the first append and grows with
// the traffic, so idle queues stay small.
//
// Chan queues its values and waiters in it, TCP connections their send
// and receive bytes, netem links their transmit and propagation frames,
// and gateway forwarding engines their waiting packets.
type Queue[T any] struct {
	buf  []T // the live values are buf[head:]
	head int
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued values, oldest first. The slice is valid
// until the next Push or Append.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push queues v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) {
		q.makeRoom(1)
	}
	q.buf = append(q.buf, v)
}

// Append queues copies of vs.
func (q *Queue[T]) Append(vs []T) {
	if len(vs) > cap(q.buf)-len(q.buf) {
		q.makeRoom(len(vs))
	}
	q.buf = append(q.buf, vs...)
}

// Pop removes and returns the oldest value. The queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.Discard(1)
	return v
}

// Discard drops the n oldest values.
func (q *Queue[T]) Discard(n int) {
	clear(q.buf[q.head : q.head+n]) // release what the values reference
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// remove drops the i-th oldest value, keeping the order of the rest.
func (q *Queue[T]) remove(i int) {
	live := q.Items()
	copy(live[i:], live[i+1:])
	clear(live[len(live)-1:])
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// makeRoom leaves at least n free slots at the tail, compacting in
// place when the live values plus n fit in half the array and
// reallocating otherwise.
func (q *Queue[T]) makeRoom(n int) {
	live := q.Len()
	if live+n <= cap(q.buf)/2 {
		copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
		return
	}
	nb := make([]T, live, max(2*cap(q.buf), live+n))
	copy(nb, q.buf[q.head:])
	q.buf, q.head = nb, 0
}
