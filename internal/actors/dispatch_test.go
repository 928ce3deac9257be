package actors

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestPooledIdleActorsNoGoroutines is the headline scaling property:
// spawning a large, mostly-idle actor population under Pooled dispatch must
// not cost a goroutine per actor.
func TestPooledIdleActorsNoGoroutines(t *testing.T) {
	const n = 20000
	before := runtime.NumGoroutine()
	sys := NewSystem(Config{Dispatcher: Pooled, PoolSize: 4})
	var handled atomic.Int64
	refs := make([]*Ref, n)
	for i := range refs {
		refs[i] = sys.MustSpawn("idle", func(ctx *Context, msg any) { handled.Add(1) })
	}
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 64 {
		t.Fatalf("spawning %d pooled actors grew goroutines by %d (want ≤ pool size + slack)", n, grew)
	}
	// They are real actors: each must still process a message.
	for _, r := range refs {
		r.Tell(struct{}{})
	}
	deadline := time.Now().Add(30 * time.Second)
	for handled.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != n {
		t.Fatalf("handled %d of %d", handled.Load(), n)
	}
	sys.Shutdown()
	// Shutdown retires the pool: no lingering workers.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+8 {
		t.Fatalf("after Shutdown %d goroutines remain (started at %d)", got, before)
	}
}

// TestPooledBasicDelivery covers the everyday actor operations on the
// pooled path: Tell, Reply, Become, Stop, Await, deadletters after stop.
func TestPooledBasicDelivery(t *testing.T) {
	sys := NewSystem(Config{Dispatcher: Pooled})
	defer sys.Shutdown()

	// Ask round trip through a pooled actor.
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	got, err := Ask(sys, echo, "ping", 5*time.Second)
	if err != nil || got != "ping" {
		t.Fatalf("Ask = %v, %v", got, err)
	}

	// Become switches behavior between messages.
	outs := make(chan string, 2)
	var second Behavior = func(ctx *Context, msg any) { outs <- "second" }
	toggler := sys.MustSpawn("toggler", func(ctx *Context, msg any) {
		outs <- "first"
		ctx.Become(second)
	})
	toggler.Tell(nil)
	toggler.Tell(nil)
	if a, b := <-outs, <-outs; a != "first" || b != "second" {
		t.Fatalf("become sequence = %s, %s", a, b)
	}

	// Stop + Await + deadletter after stop.
	var dead atomic.Int64
	sys.cfg.DeadLetter = func(to *Ref, e Envelope) { dead.Add(1) }
	sys.Stop(echo)
	sys.Await(echo)
	if sys.Alive(echo) {
		t.Fatal("echo alive after Await")
	}
	echo.Tell("late")
	if dead.Load() == 0 {
		t.Fatal("send to stopped pooled actor did not deadletter")
	}
}

// TestPooledFairness runs two flooding actors on a single worker: the
// Throughput quantum must force interleaving so neither starves.
func TestPooledFairness(t *testing.T) {
	sys := NewSystem(Config{Dispatcher: Pooled, PoolSize: 1, Throughput: 8})
	defer sys.Shutdown()
	const per = 400
	var aDone, bDone atomic.Int64
	a := sys.MustSpawn("a", func(ctx *Context, msg any) { aDone.Add(1) })
	b := sys.MustSpawn("b", func(ctx *Context, msg any) { bDone.Add(1) })
	for i := 0; i < per; i++ {
		a.Tell(i)
		b.Tell(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for (aDone.Load() < per || bDone.Load() < per) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if aDone.Load() != per || bDone.Load() != per {
		t.Fatalf("a=%d b=%d, want %d each (starvation on a 1-worker pool?)",
			aDone.Load(), bDone.Load(), per)
	}
}

// TestPooledSupervisionRestart verifies the supervision contract survives
// the dispatcher change: a panicking pooled actor is restarted in place
// with its mailbox intact.
func TestPooledSupervisionRestart(t *testing.T) {
	sys := NewSystem(Config{Dispatcher: Pooled})
	defer sys.Shutdown()
	sup := sys.Supervise("root", SupervisorSpec{MaxRestarts: 100})
	var handled atomic.Int64
	ref := sup.MustSpawn("worker", func() Behavior {
		return func(ctx *Context, msg any) {
			if msg == "boom" {
				panic("boom")
			}
			handled.Add(1)
		}
	})
	ref.Tell(1)
	ref.Tell("boom")
	ref.Tell(2) // queued behind the poison: must survive the restart
	ref.Tell(3)
	deadline := time.Now().Add(10 * time.Second)
	for handled.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if handled.Load() != 3 {
		t.Fatalf("handled %d, want 3", handled.Load())
	}
	if sys.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", sys.Restarts())
	}
}

// TestPooledShutdownDrains: Shutdown under Pooled dispatch must deliver
// queued messages before the poison pill, like Dedicated mode.
func TestPooledShutdownDrains(t *testing.T) {
	sys := NewSystem(Config{Dispatcher: Pooled, PoolSize: 2})
	var handled atomic.Int64
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) { handled.Add(1) })
	const total = 500
	for i := 0; i < total; i++ {
		sink.Tell(i)
	}
	sys.Shutdown()
	if handled.Load() != total {
		t.Fatalf("handled %d of %d before shutdown completed", handled.Load(), total)
	}
	// Shutdown is idempotent with the pool retired.
	sys.Shutdown()
}

func TestDispatchModeString(t *testing.T) {
	if Dedicated.String() != "dedicated" || Pooled.String() != "pooled" {
		t.Fatalf("String() = %q, %q", Dedicated.String(), Pooled.String())
	}
	if DispatchMode(9).String() != "DispatchMode(9)" {
		t.Fatalf("String() = %q", DispatchMode(9).String())
	}
}

// TestPerturbedDeliveryStillWorks pins the PerturbSeed contract on the new
// dispatcher plumbing: all messages arrive exactly once (order is free).
func TestPerturbedDeliveryStillWorks(t *testing.T) {
	for _, mode := range []DispatchMode{Dedicated, Pooled} {
		sys := NewSystem(Config{PerturbSeed: 42, Dispatcher: mode})
		var handled atomic.Int64
		var outOfOrder atomic.Bool
		gate := make(chan struct{})
		last := -1
		sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
			if handled.Load() == 0 {
				<-gate // hold the first delivery until the backlog is queued
			}
			if msg.(int) < last {
				outOfOrder.Store(true)
			}
			last = msg.(int)
			handled.Add(1)
		})
		const total = 2000
		for i := 0; i < total; i++ {
			sink.Tell(i)
		}
		close(gate)
		// Wait for the drain before Shutdown: a poison pill in a perturbed
		// mailbox is itself subject to reordering and may overtake payloads.
		deadline := time.Now().Add(30 * time.Second)
		for handled.Load() < total && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		sys.Shutdown()
		if handled.Load() != total {
			t.Fatalf("%v: handled %d of %d", mode, handled.Load(), total)
		}
		if !outOfOrder.Load() {
			t.Fatalf("%v: perturbed mailbox delivered 2000 messages in perfect FIFO order", mode)
		}
	}
}
