package actors

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// Satellite regression: Context.Reply with no recorded sender must not hand
// a nil *Ref to user DeadLetter hooks.
func TestReplyWithoutSenderDeadlettersWithNonNilRef(t *testing.T) {
	type seen struct {
		to   *Ref
		name string
	}
	ch := make(chan seen, 1)
	sys := NewSystem(Config{DeadLetter: func(to *Ref, e Envelope) {
		// Calling methods on to must be safe even here.
		select {
		case ch <- seen{to: to, name: to.Name()}:
		default:
		}
	}})
	defer sys.Shutdown()
	replier := sys.MustSpawn("replier", func(ctx *Context, msg any) {
		ctx.Reply("to nobody") // no sender recorded: Tell, not TellFrom
	})
	replier.Tell("go")
	select {
	case got := <-ch:
		if got.to == nil {
			t.Fatal("DeadLetter hook received a nil *Ref")
		}
		if got.to != NoRecipient || got.name != "no-recipient" {
			t.Fatalf("DeadLetter to = %v (name %q), want NoRecipient", got.to, got.name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reply never deadlettered")
	}
	if sys.DeadLetters() != 1 {
		t.Fatalf("DeadLetters = %d, want 1", sys.DeadLetters())
	}
	// Sends on the sentinel are discarded, not a crash.
	NoRecipient.Tell("into the void")
	NoRecipient.TellFrom(replier, "still nothing")
}

// Satellite: drop-policy accounting. Every injected drop must surface as
// exactly one deadletter, and processed + dropped must equal sent.
func TestDropPolicyDeadletterAccounting(t *testing.T) {
	const n = 200
	inj := faults.Count(faults.Drop(1234, 0.35, faults.All(
		faults.AtSite(faults.SiteSend), faults.OnActor("sink"))))
	var hookDead atomic.Int64
	sys := NewSystem(Config{
		Injector:   inj,
		DeadLetter: func(to *Ref, e Envelope) { hookDead.Add(1) },
	})
	var processed atomic.Int64
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) { processed.Add(1) })
	for i := 0; i < n; i++ {
		sink.Tell(i)
	}
	// Quiesce: wait until every survivor is processed.
	deadline := time.Now().Add(5 * time.Second)
	for processed.Load()+inj.Drops() < n {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sys.Shutdown()

	drops := inj.Drops()
	if drops == 0 || drops == n {
		t.Fatalf("drops = %d; the seeded 35%% policy should drop some but not all of %d", drops, n)
	}
	if got := processed.Load(); got+drops != n {
		t.Fatalf("processed(%d) + dropped(%d) != sent(%d)", got, drops, n)
	}
	if sys.DeadLetters() != drops {
		t.Fatalf("DeadLetters = %d, want %d (one per injected drop)", sys.DeadLetters(), drops)
	}
	if hookDead.Load() != drops {
		t.Fatalf("DeadLetter hook calls = %d, want %d", hookDead.Load(), drops)
	}
	if sys.FaultsInjected() != drops {
		t.Fatalf("FaultsInjected = %d, want %d", sys.FaultsInjected(), drops)
	}
}

// Satellite: slow-consumer policy. Receive-side delays let the unbounded
// mailbox back up, but must not lose messages: every message is eventually
// processed and none deadletters.
func TestSlowConsumerBackpressureLosesNothing(t *testing.T) {
	const (
		senders = 4
		each    = 25
	)
	inj := faults.Count(faults.SlowConsumer(5, 500*time.Microsecond, faults.OnActor("sink")))
	sys := NewSystem(Config{Injector: inj})
	var processed atomic.Int64
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		processed.Add(1)
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sink.Tell([2]int{s, i})
			}
		}(s)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for processed.Load() != senders*each {
		if time.Now().After(deadline) {
			t.Fatalf("processed = %d, want %d (slow-consumer delays must not lose messages)",
				processed.Load(), senders*each)
		}
		time.Sleep(time.Millisecond)
	}
	sys.Shutdown()
	if sys.DeadLetters() != 0 {
		t.Fatalf("DeadLetters = %d, want 0 under pure delay faults", sys.DeadLetters())
	}
	if inj.Delays() == 0 {
		t.Fatal("slow-consumer policy never fired")
	}
	if sys.FaultsInjected() != inj.Delays() {
		t.Fatalf("FaultsInjected = %d, want %d", sys.FaultsInjected(), inj.Delays())
	}
}

// Deadletter counter invariant under mixed faults: messages either get
// processed, dropped by the injector, or drained at shutdown — and the
// deadletter counter equals drops + drained, never double-counting.
func TestMixedFaultDeadletterInvariant(t *testing.T) {
	const n = 300
	inj := faults.Count(faults.Chain(
		faults.Drop(7, 0.2, faults.All(faults.AtSite(faults.SiteSend), faults.OnActor("sink"))),
		faults.Delay(11, 0.1, time.Millisecond, faults.All(faults.AtSite(faults.SiteReceive), faults.OnActor("sink"))),
	))
	sys := NewSystem(Config{Injector: inj})
	var processed atomic.Int64
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) { processed.Add(1) })
	for i := 0; i < n; i++ {
		sink.Tell(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for processed.Load()+inj.Drops() < n {
		if time.Now().After(deadline) {
			t.Fatalf("stalled: processed=%d drops=%d of %d", processed.Load(), inj.Drops(), n)
		}
		time.Sleep(time.Millisecond)
	}
	sys.Shutdown()
	if processed.Load()+inj.Drops() != n {
		t.Fatalf("processed(%d) + dropped(%d) != sent(%d)", processed.Load(), inj.Drops(), n)
	}
	if sys.DeadLetters() != inj.Drops() {
		t.Fatalf("DeadLetters = %d, want exactly the %d injected drops", sys.DeadLetters(), inj.Drops())
	}
}
