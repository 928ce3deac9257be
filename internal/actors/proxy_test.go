package actors

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProxyRefForwardsEnvelopes(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()

	var mu sync.Mutex
	var got []Envelope
	p := sys.NewProxyRef("remote-echo", func(e Envelope) ProxyStatus {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
		return ProxyDelivered
	})
	sender := sys.MustSpawn("sender", func(ctx *Context, msg any) {})
	p.TellFrom(sender, "hello")
	p.Tell(42)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("deliver saw %d envelopes, want 2", len(got))
	}
	if got[0].Msg != "hello" || got[0].Sender != sender {
		t.Fatalf("first envelope = %+v", got[0])
	}
	if got[1].Msg != 42 || got[1].Sender != nil {
		t.Fatalf("second envelope = %+v", got[1])
	}
	if sys.DeadLetters() != 0 {
		t.Fatalf("deadletters = %d, want 0", sys.DeadLetters())
	}
}

func TestProxyRefusalDeadlettersAsRemote(t *testing.T) {
	var hooked []string
	var mu sync.Mutex
	sys := NewSystem(Config{DeadLetter: func(to *Ref, e Envelope) {
		mu.Lock()
		hooked = append(hooked, to.Name())
		mu.Unlock()
	}})
	defer sys.Shutdown()

	p := sys.NewProxyRef("peer-down", func(e Envelope) ProxyStatus { return ProxyUnreachable })
	start := time.Now()
	p.Tell("lost")
	if time.Since(start) > time.Second {
		t.Fatal("refused proxy send must not block")
	}
	if got := sys.DeadLettersOf(DLRemote); got != 1 {
		t.Fatalf("DLRemote = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hooked) != 1 || hooked[0] != "peer-down" {
		t.Fatalf("deadletter hook calls = %v; the hook must see the proxy's name", hooked)
	}
}

func TestControlMessagesNeverCrossProxy(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()

	var delivered int
	p := sys.NewProxyRef("remote", func(e Envelope) ProxyStatus {
		delivered++
		return ProxyDelivered
	})
	sys.Stop(p) // poison pill: local directive, must not be forwarded
	if delivered != 0 {
		t.Fatalf("control message reached deliver %d times", delivered)
	}
	if got := sys.DeadLettersOf(DLRemote); got != 1 {
		t.Fatalf("DLRemote = %d, want 1 (the refused control message)", got)
	}
}

func TestProxyIsNotAlive(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	p := sys.NewProxyRef("remote", func(e Envelope) ProxyStatus { return ProxyDelivered })
	if sys.Alive(p) {
		t.Fatal("Alive(proxy) = true; proxies are not local actors")
	}
	// Await must return immediately rather than hang on a ref that will
	// never appear in the routing table.
	done := make(chan struct{})
	go func() {
		sys.Await(p)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Await(proxy) hung")
	}
}

func TestProxyIDsAreUniqueAndByIDFindsLocals(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()

	local := sys.MustSpawn("local", func(ctx *Context, msg any) {})
	p1 := sys.NewProxyRef("p1", func(e Envelope) ProxyStatus { return ProxyDelivered })
	p2 := sys.NewProxyRef("p2", func(e Envelope) ProxyStatus { return ProxyDelivered })
	ids := map[uint64]bool{local.ID(): true, p1.ID(): true, p2.ID(): true}
	if len(ids) != 3 {
		t.Fatalf("IDs collide: local=%d p1=%d p2=%d", local.ID(), p1.ID(), p2.ID())
	}

	if got := sys.ByID(local.ID()); got != local {
		t.Fatalf("ByID(local) = %v, want the local ref", got)
	}
	// Proxies are not in the routing table; raw-ID lookup must not
	// resurrect them.
	if got := sys.ByID(p1.ID()); got != nil {
		t.Fatalf("ByID(proxy) = %v, want nil", got)
	}
	if got := sys.ByID(999999); got != nil {
		t.Fatalf("ByID(unknown) = %v, want nil", got)
	}

	// After an actor stops, ByID must report it gone (a reply addressed to
	// it deadletters rather than reaching a stale mailbox).
	stopper := sys.MustSpawn("stopper", func(ctx *Context, msg any) { ctx.Stop() })
	id := stopper.ID()
	stopper.Tell("die")
	sys.Await(stopper)
	if got := sys.ByID(id); got != nil {
		t.Fatalf("ByID(stopped) = %v, want nil", got)
	}
}

func TestAskThroughRefusingProxyFailsFast(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	p := sys.NewProxyRef("peer-down", func(e Envelope) ProxyStatus { return ProxyUnreachable })
	start := time.Now()
	_, err := Ask(sys, p, "ping", 10*time.Second)
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("Ask(refusing proxy) error = %v, want ErrPeerUnreachable", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Ask through a refusing proxy must fail fast, not wait out the timeout")
	}
}

// TestAskRetryRetriesUnreachablePeer: a proxy that refuses a few times and
// then accepts models a partitioned peer healing — AskRetry must ride it
// out rather than give up the way it does for a stopped local actor.
func TestAskRetryRetriesUnreachablePeer(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var refusals atomic.Int64
	var accepted atomic.Value // stores Envelope
	p := sys.NewProxyRef("flaky-peer", func(e Envelope) ProxyStatus {
		if refusals.Add(1) <= 3 {
			return ProxyUnreachable
		}
		accepted.Store(e)
		// Reply as the remote end would, so the ask completes.
		if e.Sender != nil {
			e.Sender.Tell("pong")
		}
		return ProxyDelivered
	})
	r, err := AskRetry(sys, p, "ping", RetryConfig{
		Attempts: 10, Timeout: 100 * time.Millisecond, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AskRetry through a healing proxy failed: %v", err)
	}
	if r != "pong" {
		t.Fatalf("reply = %v", r)
	}
	if refusals.Load() != 4 {
		t.Fatalf("proxy consulted %d times, want 4 (3 refusals + 1 accept)", refusals.Load())
	}
}

func TestDeadLetterKindCounts(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()

	// DLNoRecipient: nil target.
	sys.send(nil, Envelope{Msg: "x"})
	// DLDead: foreign ref.
	other := NewSystem(Config{})
	foreign := other.MustSpawn("foreign", func(ctx *Context, msg any) {})
	other.Shutdown()
	sys.send(foreign, Envelope{Msg: "x"})
	// DLRemote: refusing proxy.
	p := sys.NewProxyRef("p", func(e Envelope) ProxyStatus { return ProxyUnreachable })
	p.Tell("x")

	want := map[DeadLetterKind]int64{
		DLNoRecipient: 1,
		DLDead:        1,
		DLRemote:      1,
		DLClosed:      0,
		DLDropped:     0,
	}
	for kind, n := range want {
		if got := sys.DeadLettersOf(kind); got != n {
			t.Errorf("DeadLettersOf(%s) = %d, want %d", kind, got, n)
		}
	}
	if total := sys.DeadLetters(); total != 3 {
		t.Errorf("DeadLetters() = %d, want 3", total)
	}
	// Out-of-range kinds are a safe zero, not a panic.
	if got := sys.DeadLettersOf(DeadLetterKind(-1)); got != 0 {
		t.Errorf("DeadLettersOf(-1) = %d", got)
	}
	if got := sys.DeadLettersOf(DeadLetterKind(99)); got != 0 {
		t.Errorf("DeadLettersOf(99) = %d", got)
	}
}
