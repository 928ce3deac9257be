package actors

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A local mailbox never sheds, so ErrOverloaded reaches Ask only through a
// proxy: the remote link's outbox/credit window refusing a send. These tests
// drive that path with a proxy stub (refusingProxy) that reports
// ProxyOverloaded for its first deliveries.

// TestAskFailsFastOverloaded: an Ask through an overloaded proxy returns
// ErrOverloaded immediately instead of burning the whole timeout, and the
// refused request deadletters as DLOverloaded.
func TestAskFailsFastOverloaded(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	ref, _ := refusingProxy(sys, nil, ProxyOverloaded, 1<<30)

	start := time.Now()
	_, err := Ask(sys, ref, "ask", 5*time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Ask error = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Ask did not fail fast: %v", elapsed)
	}
	if got := sys.DeadLettersOf(DLOverloaded); got != 1 {
		t.Fatalf("DLOverloaded = %d, want 1", got)
	}
}

// TestAskRetryRetriesOverloaded: ErrOverloaded is transient, so AskRetry
// keeps backing off and succeeds once the backlog drains — unlike
// ErrActorStopped, which fails the call on the first attempt (pinned by
// TestAskRetryFailsFastOnStoppedActor).
func TestAskRetryRetriesOverloaded(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	target := sys.MustSpawn("target", func(ctx *Context, msg any) {
		ctx.Reply("pong")
	})
	ref, _ := refusingProxy(sys, target, ProxyOverloaded, 3)

	r, err := AskRetry(sys, ref, "ask", RetryConfig{
		Attempts: 50,
		Timeout:  time.Second,
		Backoff:  time.Millisecond,
		Budget:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("AskRetry under transient overload failed: %v", err)
	}
	if r != "pong" {
		t.Fatalf("reply = %v, want pong", r)
	}
	if got := sys.DeadLettersOf(DLOverloaded); got != 3 {
		t.Fatalf("DLOverloaded = %d, want 3 (one per refused attempt)", got)
	}
}

// TestAskRetryCtxCancelMidBackoffOverloaded: a context cancelled once the
// first attempt has been refused — while AskRetry heads into or sits in its
// 30s backoff — aborts the retry loop promptly and surfaces ctx.Err(), not
// ErrOverloaded. The proxy seeing exactly one delivery proves no second
// attempt ran.
func TestAskRetryCtxCancelMidBackoffOverloaded(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	ref, refused := refusingProxy(sys, nil, ProxyOverloaded, 1<<30)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-refused
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
	if got := sys.DeadLettersOf(DLOverloaded); got != 1 {
		t.Fatalf("DLOverloaded = %d, want 1 (a second attempt ran)", got)
	}
}
