package actors

import (
	"testing"
	"time"
)

// TestLockMailboxWaiterCounters pins the signal-only-when-waiting fix: the
// uncontended put/take path must never leave (or need) a waiter, so no
// condvar wake is issued unless someone is actually blocked.
func TestLockMailboxWaiterCounters(t *testing.T) {
	m := newLockMailbox(nil, 0)
	for i := 0; i < 10; i++ {
		if !m.put(Envelope{Msg: i}) {
			t.Fatal("put refused")
		}
		if _, ok := m.tryTake(); !ok {
			t.Fatal("tryTake empty")
		}
	}
	m.mu.Lock()
	tw := m.takeWaiters
	m.mu.Unlock()
	if tw != 0 {
		t.Fatalf("uncontended traffic left a waiter: take=%d", tw)
	}

	// A blocked taker registers, and exactly one put releases it.
	woke := make(chan Envelope, 1)
	go func() {
		e, _ := m.takeOne()
		woke <- e
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		tw = m.takeWaiters
		m.mu.Unlock()
		if tw == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if tw != 1 {
		t.Fatalf("blocked taker not counted: takeWaiters=%d", tw)
	}
	m.put(Envelope{Msg: "x"})
	select {
	case e := <-woke:
		if e.Msg != "x" {
			t.Fatalf("taker woke with %v", e.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put with a registered taker did not wake it")
	}
}

func TestUnboundedDefaultNeverBlocks(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	release := make(chan struct{})
	slow := sys.MustSpawn("slow", func(ctx *Context, msg any) { <-release })
	donesend := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			slow.Tell(i)
		}
		close(donesend)
	}()
	select {
	case <-donesend:
	case <-time.After(5 * time.Second):
		t.Fatal("unbounded sends blocked")
	}
	close(release)
}
