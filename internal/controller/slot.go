package controller

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Loop is a control loop fed one Observe call per completion: the MPL
// controller, the SLO controller or the fairness controller.
type Loop interface {
	Observe()
}

// Slot holds the one control loop a gate runs. Every loop closes its
// observation windows by resetting the gate's one metrics window, so
// two loops at once would destroy each other's observations; the slot
// is the one place that decides which loop may attach. Callers name
// each loop's kind. Attach and Detach serialize; Loop and Observe are
// one atomic load. The zero Slot is empty.
type Slot struct {
	mu  sync.Mutex
	cur atomic.Pointer[attached]
}

type attached struct {
	kind string
	loop Loop
}

// Attach installs the loop build returns as kind, replacing a loop of
// the same kind. While a loop of another kind is attached it fails
// without calling build, since building resets the metrics window and
// may install a class partition. A build error leaves the slot as it
// was.
func (s *Slot) Attach(kind string, build func() (Loop, error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.cur.Load(); a != nil && a.kind != kind {
		return fmt.Errorf("controller: the %s loop and the attached %s loop share the metrics window; detach the %s loop first",
			kind, a.kind, a.kind)
	}
	l, err := build()
	if err != nil {
		return err
	}
	s.cur.Store(&attached{kind, l})
	return nil
}

// Detach empties the slot and returns its loop if the loop is of kind;
// otherwise it returns nil and changes nothing.
func (s *Slot) Detach(kind string) Loop {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.cur.Load()
	if a == nil || a.kind != kind {
		return nil
	}
	s.cur.Store(nil)
	return a.loop
}

// Loop returns the attached loop, or nil.
func (s *Slot) Loop() Loop {
	if a := s.cur.Load(); a != nil {
		return a.loop
	}
	return nil
}

// Observe feeds one completion to the attached loop, if any.
func (s *Slot) Observe() {
	if a := s.cur.Load(); a != nil {
		a.loop.Observe()
	}
}
