package controller

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countLoop counts its Observe calls.
type countLoop struct{ n atomic.Int64 }

func (l *countLoop) Observe() { l.n.Add(1) }

// TestSlotRule: a loop of another kind is refused without building;
// the same kind replaces; a build error and a mismatched Detach change
// nothing; Observe reaches only the attached loop.
func TestSlotRule(t *testing.T) {
	var s Slot
	s.Observe() // empty: a no-op
	a := &countLoop{}
	if err := s.Attach("a", func() (Loop, error) { return a, nil }); err != nil {
		t.Fatal(err)
	}
	built := false
	err := s.Attach("b", func() (Loop, error) { built = true; return &countLoop{}, nil })
	if err == nil || built || !strings.Contains(err.Error(), "share the metrics window") {
		t.Errorf("attaching b over a: err %v, built %v; want a refusal before build", err, built)
	}
	if err := s.Attach("a", func() (Loop, error) { return nil, errors.New("boom") }); err == nil || s.Loop() != Loop(a) {
		t.Errorf("failed build: err %v, loop %v; want the error and a kept", err, s.Loop())
	}
	if s.Detach("b") != nil || s.Loop() != Loop(a) {
		t.Error("Detach of another kind changed the slot")
	}
	s.Observe()
	a2 := &countLoop{}
	if err := s.Attach("a", func() (Loop, error) { return a2, nil }); err != nil {
		t.Fatal(err)
	}
	s.Observe()
	if a.n.Load() != 1 || a2.n.Load() != 1 {
		t.Errorf("observations a=%d a2=%d, want 1 each", a.n.Load(), a2.n.Load())
	}
	if s.Detach("a") != Loop(a2) || s.Loop() != nil {
		t.Error("Detach did not return and remove the attached loop")
	}
	if err := s.Attach("b", func() (Loop, error) { return &countLoop{}, nil }); err != nil {
		t.Errorf("attaching b to the emptied slot: %v", err)
	}
}

// TestSlotConcurrent: completions observe while other goroutines
// attach and detach loops of two kinds (run with -race); once every
// attach is detached the slot is empty.
func TestSlotConcurrent(t *testing.T) {
	var s Slot
	loop := &countLoop{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Observe()
				}
			}
		}()
	}
	var togglers sync.WaitGroup
	for _, kind := range []string{"a", "b"} {
		togglers.Add(1)
		go func(kind string) {
			defer togglers.Done()
			for i := 0; i < 1000; i++ {
				_ = s.Attach(kind, func() (Loop, error) { return loop, nil })
				s.Detach(kind)
			}
		}(kind)
	}
	togglers.Wait()
	close(stop)
	wg.Wait()
	if s.Loop() != nil {
		t.Errorf("slot holds %v after every attach was detached", s.Loop())
	}
}
