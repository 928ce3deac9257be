package actors

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// refusingProxy returns a proxy Ref that reports status for its first
// `refusals` deliveries and forwards to target afterwards — the shape of a
// cluster shard mid-handoff that lands on its new owner (ProxyMoving), or a
// congested link whose backlog drains (ProxyOverloaded). The returned
// channel is closed after the first refusal.
func refusingProxy(sys *System, target *Ref, status ProxyStatus, refusals int64) (*Ref, <-chan struct{}) {
	var n atomic.Int64
	refused := make(chan struct{})
	ref := sys.NewProxyRef("refusing-proxy", func(e Envelope) ProxyStatus {
		if k := n.Add(1); k <= refusals {
			if k == 1 {
				close(refused)
			}
			return status
		}
		target.TellFrom(e.Sender, e.Msg)
		return ProxyDelivered
	})
	return ref, refused
}

// TestAskFailsFastShardMoving: an Ask into a shard that is mid-handoff
// returns ErrShardMoving immediately instead of burning the whole timeout,
// and the refused request deadletters as DLMoving (not DLRemote or
// DLOverloaded — the kinds must stay distinguishable for internal/detect,
// which ignores "moving" like it ignores "remote").
func TestAskFailsFastShardMoving(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	ref := sys.NewProxyRef("shard-proxy", func(Envelope) ProxyStatus {
		return ProxyMoving
	})

	start := time.Now()
	_, err := Ask(sys, ref, "ask", 5*time.Second)
	if !errors.Is(err, ErrShardMoving) {
		t.Fatalf("Ask error = %v, want ErrShardMoving", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Ask did not fail fast: %v", elapsed)
	}
	if got := sys.DeadLettersOf(DLMoving); got != 1 {
		t.Fatalf("DLMoving deadletters = %d, want 1", got)
	}
	if got := sys.DeadLettersOf(DLRemote); got != 0 {
		t.Fatalf("DLRemote deadletters = %d, want 0 (moving must not masquerade as unreachable)", got)
	}
	if got := sys.DeadLettersOf(DLOverloaded); got != 0 {
		t.Fatalf("DLOverloaded deadletters = %d, want 0 (moving must not masquerade as overload)", got)
	}
}

// TestAskRetryRetriesShardMoving: ErrShardMoving is transient — the handoff
// completes — so AskRetry keeps backing off across ProxyMoving verdicts and
// succeeds once the shard lands, exactly like its ErrOverloaded and
// ErrPeerUnreachable siblings (TestAskRetryRetriesOverloaded,
// TestAskRetrySurvivesDrops).
func TestAskRetryRetriesShardMoving(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	grain := sys.MustSpawn("grain", func(ctx *Context, msg any) {
		ctx.Reply("pong")
	})
	ref, _ := refusingProxy(sys, grain, ProxyMoving, 3)

	r, err := AskRetry(sys, ref, "ask", RetryConfig{
		Attempts: 50,
		Timeout:  time.Second,
		Backoff:  time.Millisecond,
		Budget:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("AskRetry across a completing handoff failed: %v", err)
	}
	if r != "pong" {
		t.Fatalf("reply = %v, want pong", r)
	}
	if got := sys.DeadLettersOf(DLMoving); got != 3 {
		t.Fatalf("DLMoving deadletters = %d, want 3 (one per refused attempt)", got)
	}
}

// TestAskRetryCtxCancelMidHandoff: a context cancelled while AskRetry sleeps
// between ErrShardMoving attempts aborts the backoff promptly and surfaces
// ctx.Err(), not ErrShardMoving — the regression pinned alongside
// TestAskRetryCtxCancelMidBackoffOverloaded.
func TestAskRetryCtxCancelMidHandoff(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	// A handoff that never completes: every attempt is refused as moving.
	ref := sys.NewProxyRef("shard-proxy", func(Envelope) ProxyStatus {
		return ProxyMoving
	})

	// The first attempt fails fast with ErrShardMoving, so shortly after the
	// call starts the retry loop is asleep in its 30s backoff — cancel lands
	// mid-sleep.
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
