package kernel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkProc(id int) *Proc { return &Proc{id: id, name: "p"} }

func TestWaitListFIFO(t *testing.T) {
	var w WaitList
	ps := []*Proc{mkProc(1), mkProc(2), mkProc(3)}
	for _, p := range ps {
		w.Push(p)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	for i, want := range ps {
		if got := w.Pop(); got != want {
			t.Fatalf("Pop #%d = %v, want %v", i, got, want)
		}
	}
	if got := w.Pop(); got != nil {
		t.Fatalf("Pop on empty = %v, want nil", got)
	}
}

func TestWaitListRankOrdering(t *testing.T) {
	var w WaitList
	a, b, c, d := mkProc(1), mkProc(2), mkProc(3), mkProc(4)
	w.PushRank(a, 5)
	w.PushRank(b, 1)
	w.PushRank(c, 5)
	w.PushRank(d, 0)
	want := []*Proc{d, b, a, c} // ascending rank, arrival order within rank
	for i, wp := range want {
		if got := w.Pop(); got != wp {
			t.Fatalf("Pop #%d = %v, want %v", i, got, wp)
		}
	}
}

func TestWaitListMinRank(t *testing.T) {
	var w WaitList
	if _, ok := w.MinRank(); ok {
		t.Fatal("MinRank on empty reported ok")
	}
	w.PushRank(mkProc(1), 7)
	w.PushRank(mkProc(2), 3)
	if r, ok := w.MinRank(); !ok || r != 3 {
		t.Fatalf("MinRank = %d,%v, want 3,true", r, ok)
	}
}

func TestWaitListRemove(t *testing.T) {
	var w WaitList
	a, b, c := mkProc(1), mkProc(2), mkProc(3)
	w.Push(a)
	w.Push(b)
	w.Push(c)
	if !w.Remove(b) {
		t.Fatal("Remove(b) = false, want true")
	}
	if w.Remove(b) {
		t.Fatal("second Remove(b) = true, want false")
	}
	if got := w.Pop(); got != a {
		t.Fatalf("Pop = %v, want a", got)
	}
	if got := w.Pop(); got != c {
		t.Fatalf("Pop = %v, want c", got)
	}
}

func TestWaitListTags(t *testing.T) {
	var w WaitList
	a, b := mkProc(1), mkProc(2)
	w.PushTagged(a, 0, "ga")
	w.PushTagged(b, 0, 42)
	if tag := w.PeekTag(); tag != "ga" {
		t.Fatalf("PeekTag = %v, want ga", tag)
	}
	p, tag := w.PopTagged()
	if p != a || tag != "ga" {
		t.Fatalf("PopTagged = %v,%v", p, tag)
	}
	p, tag = w.PopTagged()
	if p != b || tag != 42 {
		t.Fatalf("PopTagged = %v,%v", p, tag)
	}
}

func TestWaitListEach(t *testing.T) {
	var w WaitList
	w.PushRank(mkProc(1), 2)
	w.PushRank(mkProc(2), 1)
	var ids []int
	var ranks []int64
	w.Each(func(p *Proc, rank int64, _ any) {
		ids = append(ids, p.ID())
		ranks = append(ranks, rank)
	})
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 1 || ranks[0] != 1 || ranks[1] != 2 {
		t.Fatalf("Each visited ids=%v ranks=%v", ids, ranks)
	}
}

// Property: dequeue order is a stable sort of the enqueue sequence by rank.
func TestWaitListPropertyStableRankSort(t *testing.T) {
	f := func(ranks []int8) bool {
		var w WaitList
		type rec struct {
			id   int
			rank int64
		}
		var in []rec
		for i, r8 := range ranks {
			r := int64(r8)
			if r < 0 {
				r = -r
			}
			in = append(in, rec{i + 1, r})
			w.PushRank(mkProc(i+1), r)
		}
		// Expected: stable sort by rank.
		expected := make([]rec, len(in))
		copy(expected, in)
		for i := 1; i < len(expected); i++ { // insertion sort = stable
			for j := i; j > 0 && expected[j-1].rank > expected[j].rank; j-- {
				expected[j-1], expected[j] = expected[j], expected[j-1]
			}
		}
		for _, e := range expected {
			got := w.Pop()
			if got == nil || got.ID() != e.id {
				return false
			}
		}
		return w.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop never corrupts the list; Len is
// consistent with the number of successful pops remaining.
func TestWaitListPropertyPushPopBalance(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var w WaitList
		n := 0
		id := 0
		for _, push := range ops {
			if push {
				id++
				w.PushRank(mkProc(id), int64(rng.Intn(4)))
				n++
			} else {
				p := w.Pop()
				if (p == nil) != (n == 0) {
					return false
				}
				if n > 0 {
					n--
				}
			}
			if w.Len() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWaitListPushPopFIFO(b *testing.B) {
	var w WaitList
	p := mkProc(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Push(p)
		w.Pop()
	}
}

func BenchmarkWaitListPushPopRanked(b *testing.B) {
	var w WaitList
	ps := make([]*Proc, 64)
	for i := range ps {
		ps[i] = mkProc(i)
	}
	for i, p := range ps {
		w.PushRank(p, int64(i%8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := w.Pop()
		w.PushRank(p, int64(i%8))
	}
}

func TestWaitListPopWhereKeepsOrder(t *testing.T) {
	var w WaitList
	a, b, c, d := mkProc(1), mkProc(2), mkProc(3), mkProc(4)
	for i, p := range []*Proc{a, b, c, d} {
		w.PushTagged(p, 0, i)
	}
	var asked []int
	got := w.PopWhere(func(tag any) bool {
		asked = append(asked, tag.(int))
		return tag.(int) >= 1
	})
	if got != b || fmt.Sprint(asked) != "[0 1]" {
		t.Fatalf("PopWhere = %v after asking %v, want %v after [0 1]", got, asked, b)
	}
	if got := w.PopWhere(func(any) bool { return false }); got != nil {
		t.Fatalf("PopWhere with no match = %v, want nil", got)
	}
	for i, want := range []*Proc{a, c, d} {
		if got := w.Pop(); got != want {
			t.Fatalf("Pop #%d = %v, want %v", i, got, want)
		}
	}
}

func TestWaitListStampsAndReset(t *testing.T) {
	var w WaitList
	w.PushStamped(mkProc(1), 5, 40, nil)
	w.PushStamped(mkProc(2), 1, 41, nil)
	if got := w.PeekStamp(); got != 41 {
		t.Fatalf("PeekStamp = %d, want 41 (the lower rank's)", got)
	}
	w.Reset()
	if w.Len() != 0 || w.Pop() != nil || w.PeekStamp() != 0 {
		t.Fatalf("after Reset: Len %d", w.Len())
	}
	w.Push(mkProc(3))
	if got := w.PeekStamp(); got != 1 {
		t.Fatalf("first arrival after Reset stamped %d, want 1", got)
	}
}
