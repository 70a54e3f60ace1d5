package stats

import (
	"slices"
	"testing"
)

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing[int](3)
	if _, ok := r.Last(); ok || r.Total() != 0 || len(r.Slice()) != 0 {
		t.Fatalf("empty ring: last ok=%v total=%d slice=%v", ok, r.Total(), r.Slice())
	}
	for i := 1; i <= 7; i++ {
		r.Add(i)
		want := []int{}
		for v := max(1, i-2); v <= i; v++ {
			want = append(want, v)
		}
		if got := r.Slice(); !slices.Equal(got, want) {
			t.Fatalf("after %d adds: Slice() = %v, want %v", i, got, want)
		}
		if last, ok := r.Last(); !ok || last != i {
			t.Fatalf("after %d adds: Last() = %d, %v", i, last, ok)
		}
		if r.Total() != i {
			t.Fatalf("after %d adds: Total() = %d", i, r.Total())
		}
	}
	if len(r.buf) != 3 {
		t.Errorf("buffer holds %d values, want the size bound 3", len(r.buf))
	}
}
