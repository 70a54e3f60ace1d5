package stats

// Ring keeps the most recent values appended to it, up to a fixed
// count: a log of recent events whose memory stays bounded however
// long the producer runs. It also counts every value ever appended.
// Create it with NewRing; it is not safe for concurrent use.
type Ring[T any] struct {
	buf   []T
	size  int // retention bound
	next  int // overwrite position once buf is full
	total int // values ever appended
}

// NewRing returns a ring that retains the last size values. The buffer
// grows on demand up to size, so a short-lived producer pays only for
// what it appends.
func NewRing[T any](size int) *Ring[T] {
	if size < 1 {
		panic("stats: ring size must be >= 1")
	}
	return &Ring[T]{size: size}
}

// Add appends v, overwriting the oldest retained value when full.
func (r *Ring[T]) Add(v T) {
	r.total++
	if len(r.buf) < r.size {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.size
}

// Total returns how many values were ever appended.
func (r *Ring[T]) Total() int { return r.total }

// Last returns the most recently appended value; ok is false when the
// ring is empty.
func (r *Ring[T]) Last() (v T, ok bool) {
	if len(r.buf) == 0 {
		return v, false
	}
	i := r.next - 1
	if i < 0 {
		i = len(r.buf) - 1
	}
	return r.buf[i], true
}

// Slice returns a copy of the retained values, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
