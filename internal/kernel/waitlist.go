package kernel

// WaitList is an ordered list of waiting processes. It is the queue
// building block shared by all mechanisms: semaphores, monitor conditions,
// serializer queues, and path-expression selection all need
// longest-waiting-first (FIFO) dequeueing — the assumption the paper makes
// of the path-expression selection operator (§5.1) — while Hoare's priority
// conditions additionally need rank-ordered dequeueing.
//
// A WaitList is not safe for concurrent use; the owning mechanism guards it
// with its own state lock. Equal-rank waiters always dequeue in arrival
// order. Every entry carries a stamp: its arrival number in this list, or
// one the caller supplies (PushStamped) to order waiters across several
// lists.
type WaitList struct {
	entries []waitEntry
	seq     int64
}

type waitEntry struct {
	p     *Proc
	rank  int64
	stamp int64
	tag   any
}

// Push appends p with rank 0 (pure FIFO).
func (w *WaitList) Push(p *Proc) { w.PushRank(p, 0) }

// PushRank inserts p ordered by ascending rank; among equal ranks, arrival
// order is preserved. Rank is the monitor "priority wait" argument; pure
// FIFO lists use rank 0 everywhere.
func (w *WaitList) PushRank(p *Proc, rank int64) { w.PushTagged(p, rank, nil) }

// PushTagged is PushRank with an arbitrary tag retrievable at Pop time,
// used by mechanisms that must carry per-waiter data (e.g. a serializer
// guard or a requested disk track) alongside the process.
func (w *WaitList) PushTagged(p *Proc, rank int64, tag any) {
	w.seq++
	w.PushStamped(p, rank, w.seq, tag)
}

// PushStamped is PushTagged with a caller-chosen stamp, retrievable with
// PeekStamp: a serializer stamps its queues from one clock to find the
// longest-waiting head among them. The stamp does not affect the order
// within this list.
func (w *WaitList) PushStamped(p *Proc, rank, stamp int64, tag any) {
	e := waitEntry{p: p, rank: rank, stamp: stamp, tag: tag}
	// Insert before the first entry with a strictly greater rank, keeping
	// arrival order among equal ranks. Linear scan from the back keeps the
	// common all-rank-zero case O(1).
	i := len(w.entries)
	for i > 0 && w.entries[i-1].rank > rank {
		i--
	}
	w.entries = append(w.entries, waitEntry{})
	copy(w.entries[i+1:], w.entries[i:])
	w.entries[i] = e
}

// Pop removes and returns the longest-waiting, lowest-rank process. It
// returns nil when the list is empty.
func (w *WaitList) Pop() *Proc {
	p, _ := w.PopTagged()
	return p
}

// PopTagged is Pop returning the waiter's tag as well.
func (w *WaitList) PopTagged() (*Proc, any) {
	if len(w.entries) == 0 {
		return nil, nil
	}
	e := w.entries[0]
	w.removeAt(0)
	return e.p, e.tag
}

// PopWhere removes and returns the first waiter, in dequeue order, whose
// tag satisfies match, or nil when none does. match is called in dequeue
// order and not again after the first match.
func (w *WaitList) PopWhere(match func(tag any) bool) *Proc {
	for i := range w.entries {
		if e := w.entries[i]; match(e.tag) {
			w.removeAt(i)
			return e.p
		}
	}
	return nil
}

// removeAt deletes entry i in place, keeping the order of the rest and
// the list's capacity.
func (w *WaitList) removeAt(i int) {
	copy(w.entries[i:], w.entries[i+1:])
	w.entries[len(w.entries)-1] = waitEntry{}
	w.entries = w.entries[:len(w.entries)-1]
}

// Reset empties the list and restarts its arrival numbering, keeping its
// capacity: a mechanism reset between runs leaves no waiter behind and
// allocates nothing on the next run.
func (w *WaitList) Reset() {
	clear(w.entries)
	w.entries = w.entries[:0]
	w.seq = 0
}

// Peek returns the process that Pop would return, without removing it, or
// nil when the list is empty.
func (w *WaitList) Peek() *Proc {
	if len(w.entries) == 0 {
		return nil
	}
	return w.entries[0].p
}

// PeekTag returns the tag Pop would return, without removing it.
func (w *WaitList) PeekTag() any {
	if len(w.entries) == 0 {
		return nil
	}
	return w.entries[0].tag
}

// PeekStamp returns the head entry's stamp; it is meaningful only when
// Len() > 0.
func (w *WaitList) PeekStamp() int64 {
	if len(w.entries) == 0 {
		return 0
	}
	return w.entries[0].stamp
}

// MinRank returns the rank of the head entry. It is meaningful only when
// Len() > 0; the boolean reports whether the list is non-empty. Monitor
// priority conditions expose this as Hoare's "minrank" query.
func (w *WaitList) MinRank() (int64, bool) {
	if len(w.entries) == 0 {
		return 0, false
	}
	return w.entries[0].rank, true
}

// Remove deletes p from the list wherever it is, reporting whether it was
// present. Mechanisms use it to implement cancellation and to steal a
// specific waiter.
func (w *WaitList) Remove(p *Proc) bool {
	for i := range w.entries {
		if w.entries[i].p == p {
			w.removeAt(i)
			return true
		}
	}
	return false
}

// Len reports the number of waiting processes.
func (w *WaitList) Len() int { return len(w.entries) }

// Each calls fn for every waiter in dequeue order, with its rank and tag.
// It must not mutate the list.
func (w *WaitList) Each(fn func(p *Proc, rank int64, tag any)) {
	for _, e := range w.entries {
		fn(e.p, e.rank, e.tag)
	}
}
