package actors

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fillBounded spawns an actor stalled on release and stuffs its mailbox to
// the cap, returning once further non-forced sends would hit admission
// control. The first Tell is consumed by the handler (it parks on release),
// so cap more fills the queue itself.
func fillBounded(t *testing.T, sys *System, cap int) (ref *Ref, release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	ref = sys.MustSpawn("stalled", func(ctx *Context, msg any) {
		if msg == "ask" {
			ctx.Reply("pong")
			return
		}
		<-release
	})
	ref.Tell("hold") // picked up, handler parks
	deadline := time.Now().Add(2 * time.Second)
	for sys.MailboxSize(ref) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < cap; i++ {
		ref.Tell(i)
	}
	return ref, release
}

// TestMailboxShedPolicy: under MailboxShed a full bounded mailbox sheds the
// send immediately — the sender never blocks — and the message surfaces as a
// DLOverloaded deadletter.
func TestMailboxShedPolicy(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 2, MailboxPolicy: MailboxShed})
	defer sys.Shutdown()
	ref, release := fillBounded(t, sys, 2)

	done := make(chan struct{})
	go func() {
		ref.Tell("overflow") // must shed, not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Tell blocked under MailboxShed")
	}
	if got := sys.DeadLettersOf(DLOverloaded); got != 1 {
		t.Fatalf("DLOverloaded = %d, want 1", got)
	}
	close(release)
}

// TestMailboxParkSenderPolicy: ParkSender waits up to ParkTimeout for a
// slot. If the consumer drains in time the send is admitted; if not it sheds
// as DLOverloaded.
func TestMailboxParkSenderPolicy(t *testing.T) {
	sys := NewSystem(Config{
		MailboxCap:    2,
		MailboxPolicy: MailboxParkSender,
		ParkTimeout:   time.Second,
	})
	defer sys.Shutdown()
	ref, release := fillBounded(t, sys, 2)

	// Slot opens mid-park: the parked sender must be admitted, not shed.
	go func() {
		time.Sleep(20 * time.Millisecond)
		release <- struct{}{} // handler finishes "hold", drains one slot
	}()
	ref.Tell("parked") // parks, then admitted
	if got := sys.DeadLettersOf(DLOverloaded); got != 0 {
		t.Fatalf("DLOverloaded = %d after successful park, want 0", got)
	}

	// Now keep the queue full past a tiny timeout: the park must expire.
	sys2 := NewSystem(Config{
		MailboxCap:    1,
		MailboxPolicy: MailboxParkSender,
		ParkTimeout:   5 * time.Millisecond,
	})
	defer sys2.Shutdown()
	ref2, release2 := fillBounded(t, sys2, 1)
	start := time.Now()
	ref2.Tell("doomed")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("park overstayed its timeout: %v", elapsed)
	}
	if got := sys2.DeadLettersOf(DLOverloaded); got != 1 {
		t.Fatalf("DLOverloaded = %d after park timeout, want 1", got)
	}
	close(release)
	close(release2)
}

// TestTellFromNoWait: the no-wait entry point sheds where the configured
// policy (Block here) would park the caller — it is the receiver-side hook
// remote readers use so a slow actor can never wedge a connection.
func TestTellFromNoWait(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 1}) // default MailboxBlock
	defer sys.Shutdown()
	ref, release := fillBounded(t, sys, 1)

	if ok := ref.TellSpanNoWait(nil, "overflow", nil); ok {
		t.Fatal("TellSpanNoWait reported delivery into a full mailbox")
	}
	if got := sys.DeadLettersOf(DLOverloaded); got != 1 {
		t.Fatalf("DLOverloaded = %d, want 1", got)
	}
	release <- struct{}{} // drain one slot
	deadline := time.Now().Add(2 * time.Second)
	for !ref.TellSpanNoWait(nil, "fits", nil) {
		if time.Now().After(deadline) {
			t.Fatal("TellSpanNoWait never succeeded after drain")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
}

// TestAskFailsFastOverloaded: an Ask into a shedding full mailbox returns
// ErrOverloaded immediately instead of burning the whole timeout.
func TestAskFailsFastOverloaded(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 1, MailboxPolicy: MailboxShed})
	defer sys.Shutdown()
	ref, release := fillBounded(t, sys, 1)

	start := time.Now()
	_, err := Ask(sys, ref, "ask", 5*time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Ask error = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Ask did not fail fast: %v", elapsed)
	}
	close(release)
}

// TestAskRetryRetriesOverloaded: ErrOverloaded is transient, so AskRetry
// keeps backing off and succeeds once the backlog drains — unlike
// ErrActorStopped, which fails the call on the first attempt (pinned by
// TestAskRetryFailsFastOnStoppedActor).
func TestAskRetryRetriesOverloaded(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 1, MailboxPolicy: MailboxShed})
	defer sys.Shutdown()
	ref, release := fillBounded(t, sys, 1)

	// Drain the backlog after the first attempt has certainly shed.
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	r, err := AskRetry(sys, ref, "ask", RetryConfig{
		Attempts: 50,
		Timeout:  time.Second,
		Backoff:  5 * time.Millisecond,
		Budget:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("AskRetry under transient overload failed: %v", err)
	}
	if r != "pong" {
		t.Fatalf("reply = %v, want pong", r)
	}
}

// TestAskRetryCtxCancelMidBackoffOverloaded: a context cancelled while
// AskRetry sleeps between overloaded attempts aborts the sleep promptly and
// surfaces ctx.Err(), not ErrOverloaded.
func TestAskRetryCtxCancelMidBackoffOverloaded(t *testing.T) {
	sys := NewSystem(Config{MailboxCap: 1, MailboxPolicy: MailboxShed})
	defer sys.Shutdown()
	ref, release := fillBounded(t, sys, 1)
	defer close(release)

	// The first attempt sheds near-instantly (fail-fast ErrOverloaded), so
	// shortly after the call starts the retry loop is asleep in its 30s
	// backoff — cancel lands mid-sleep.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := AskRetryCtx(ctx, sys, ref, "ask", RetryConfig{
		Attempts: 3,
		Timeout:  time.Second,
		Backoff:  30 * time.Second, // only cancellation can end this sleep
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not interrupt backoff: %v", elapsed)
	}
}
