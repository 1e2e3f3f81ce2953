package fabric

// fifo is a ring-buffer queue. Popped slots are zeroed so a drained
// entry pins nothing, and the buffer only grows (doubling, power-of-two
// sized), so a queue that has reached its steady depth stops allocating.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	if q.n == 0 {
		panic("fabric: pop from an empty fifo")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *fifo[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
