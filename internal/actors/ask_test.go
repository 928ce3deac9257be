package actors

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestAskStoppedActorFailsFast(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	target := sys.MustSpawn("target", func(ctx *Context, msg any) { ctx.Stop() })
	target.Tell("die")
	sys.Await(target)

	start := time.Now()
	_, err := Ask(sys, target, "hello", 5*time.Second)
	if !errors.Is(err, ErrActorStopped) {
		t.Fatalf("Ask(stopped) error = %v, want ErrActorStopped", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Ask(stopped) took %v; should fail fast, not wait out the timeout", elapsed)
	}
	// The reply Ref must not leak: no actor was spawned for it, and it left
	// the ask table when the ask returned.
	if n := liveActors(sys); n != 0 {
		t.Fatalf("%d actors alive after a failed ask; want 0", n)
	}
	assertAskTableEmpty(t, sys)
}

// liveActors is the number of registered actors.
func liveActors(sys *System) int {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	return len(sys.actors)
}

func assertAskTableEmpty(t *testing.T, sys *System) {
	t.Helper()
	sys.mu.Lock()
	n := len(sys.asks)
	sys.mu.Unlock()
	if n != 0 {
		t.Fatalf("ask table holds %d reply refs after the ask returned; want 0", n)
	}
}

// TestAskTableEmptyAfterEveryOutcome: however an Ask returns — reply,
// timeout, ctx cancel, or any fail-fast status — its reply Ref leaves the
// ask table, and no actor is spawned for it along the way.
func TestAskTableEmptyAfterEveryOutcome(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	proxy := func(st ProxyStatus) *Ref {
		return sys.NewProxyRef("proxy", func(Envelope) ProxyStatus { return st })
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		ctx  context.Context
		ref  *Ref
		want error
	}{
		{"reply", context.Background(), echo, nil},
		{"timeout", context.Background(), blackhole, ErrAskTimeout},
		{"ctx cancel", cancelled, blackhole, context.Canceled},
		{"nil target", context.Background(), nil, ErrActorStopped},
		{"unreachable", context.Background(), proxy(ProxyUnreachable), ErrPeerUnreachable},
		{"overloaded", context.Background(), proxy(ProxyOverloaded), ErrOverloaded},
		{"moving", context.Background(), proxy(ProxyMoving), ErrShardMoving},
	}
	for _, tc := range cases {
		timeout := 5 * time.Millisecond // the timeout case waits it out
		if tc.want == nil {
			timeout = 5 * time.Second
		}
		_, err := askCtx(tc.ctx, sys, tc.ref, "ping", timeout)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error = %v, want %v", tc.name, err, tc.want)
		}
		assertAskTableEmpty(t, sys)
		if n := liveActors(sys); n != 2 {
			t.Fatalf("%s: %d actors alive, want the 2 targets only", tc.name, n)
		}
	}
}

// TestAskConcurrentReplyRefs: many goroutines ask at once, half of them with
// a timeout short enough to race the reply. Every Ask gets its own reply or
// a timeout — never another caller's — and the ask table ends empty. Run it
// under -race: the table and each reply Ref are shared with the repliers.
func TestAskConcurrentReplyRefs(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			timeout := time.Second
			if g%2 == 1 {
				timeout = time.Microsecond
			}
			for i := 0; i < 200; i++ {
				want := g*1000 + i
				got, err := Ask(sys, echo, want, timeout)
				if err == nil && got != want {
					t.Errorf("ask %d got %v: another caller's reply", want, got)
				} else if err != nil && !errors.Is(err, ErrAskTimeout) {
					t.Errorf("ask %d: %v", want, err)
				}
			}
		}(g)
	}
	wg.Wait()
	assertAskTableEmpty(t, sys)
}

// TestAskLateReplyDeadletters: a reply that arrives after the Ask timed out,
// and a second reply to an Ask that already got one, both deadletter as
// DLDead, as a send to a stopped actor does — never as DLRemote — and
// neither reaches the caller.
func TestAskLateReplyDeadletters(t *testing.T) {
	sys := NewSystem(Config{DeadLetter: func(to *Ref, e Envelope) {
		if to.Name() != "ask-reply" {
			t.Errorf("deadletter addressed to %s, want the reply ref", to)
		}
	}})
	defer sys.Shutdown()
	held := make(chan *Ref, 1)
	slow := sys.MustSpawn("slow", func(ctx *Context, msg any) { held <- ctx.Sender() })
	if _, err := Ask(sys, slow, "late", 5*time.Millisecond); !errors.Is(err, ErrAskTimeout) {
		t.Fatalf("Ask error = %v, want ErrAskTimeout", err)
	}
	(<-held).Tell("too late")

	twice := sys.MustSpawn("twice", func(ctx *Context, msg any) {
		ctx.Reply("first")
		ctx.Reply("second")
	})
	got, err := Ask(sys, twice, "go", time.Second)
	if err != nil || got != "first" {
		t.Fatalf("Ask = %v, %v; want the first reply", got, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sys.DeadLettersOf(DLDead) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := sys.DeadLettersOf(DLDead); n != 2 {
		t.Fatalf("DLDead = %d, want 2 (the late reply and the second reply)", n)
	}
	if n := sys.DeadLettersOf(DLRemote); n != 0 {
		t.Fatalf("DLRemote = %d, want 0", n)
	}
	assertAskTableEmpty(t, sys)
}

// TestAskReplyRefResolvesByID: while an Ask waits, System.ByID resolves its
// reply Ref — the route a reply addressed by raw ID takes back from a remote
// node — and once the Ask returns the ID resolves to nothing.
func TestAskReplyRefResolvesByID(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var replyID atomic.Uint64
	relay := sys.MustSpawn("relay", func(ctx *Context, msg any) {
		replyID.Store(ctx.Sender().ID())
		sys.ByID(ctx.Sender().ID()).Tell("via id")
	})
	got, err := Ask(sys, relay, "ping", time.Second)
	if err != nil || got != "via id" {
		t.Fatalf("Ask = %v, %v; want the reply routed by ID", got, err)
	}
	if r := sys.ByID(replyID.Load()); r != nil {
		t.Fatalf("ByID(returned ask) = %v, want nil", r)
	}
}

// TestAskRetryJitterIsSeeded: the lazily built jitter RNG yields the same
// sequence for a given Seed as one seeded up front, and is never built when
// no jittered backoff happens.
func TestAskRetryJitterIsSeeded(t *testing.T) {
	rc := RetryConfig{Backoff: time.Millisecond, Jitter: 0.2, Seed: 42}.withDefaults()
	b := backoff{rc: rc, next: rc.Backoff}
	if b.rng != nil {
		t.Fatal("jitter RNG built before the first backoff")
	}
	ref := rand.New(rand.NewSource(rc.Seed + 0x5eed))
	next := rc.Backoff
	for i := 0; i < 12; i++ {
		want := time.Duration(float64(next) * (1 + rc.Jitter*(2*ref.Float64()-1)))
		if got := b.step(); got != want {
			t.Fatalf("step %d = %v, want %v", i, got, want)
		}
		next = min(2*next, rc.MaxBackoff)
	}
	if first := (&backoff{rc: rc, next: rc.Backoff}).step(); first != 828635 {
		t.Fatalf("first jittered backoff for Seed 42 = %d ns; the seed schedule changed", first)
	}
	plain := backoff{rc: RetryConfig{Backoff: time.Millisecond, MaxBackoff: time.Second}, next: time.Millisecond}
	for i := 0; i < 3; i++ {
		plain.step()
	}
	if plain.rng != nil {
		t.Fatal("jitter RNG built with Jitter = 0")
	}
}

func TestAskNilAndForeignRef(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	other := NewSystem(Config{})
	defer other.Shutdown()
	foreign := other.MustSpawn("foreign", func(ctx *Context, msg any) {})
	if _, err := Ask(sys, nil, 1, time.Second); !errors.Is(err, ErrActorStopped) {
		t.Fatalf("Ask(nil) error = %v", err)
	}
	if _, err := Ask(sys, foreign, 1, time.Second); !errors.Is(err, ErrActorStopped) {
		t.Fatalf("Ask(foreign) error = %v", err)
	}
}

func TestAskRetryRecoversFromDroppedRequests(t *testing.T) {
	// Drop the first two echo requests deterministically; the third attempt
	// succeeds.
	var sent atomic.Int64
	dropFirst2 := injectorFunc(func(op faults.Op) faults.Decision {
		if op.Site == faults.SiteSend && op.Actor == "echo" {
			if sent.Add(1) <= 2 {
				return faults.Decision{Action: faults.ActDrop}
			}
		}
		return faults.Decision{}
	})
	sys := NewSystem(Config{Injector: dropFirst2})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })

	got, err := AskRetry(sys, echo, "ping", RetryConfig{
		Attempts: 5,
		Timeout:  50 * time.Millisecond,
		Backoff:  time.Millisecond,
		Jitter:   0.2,
		Seed:     42,
	})
	if err != nil {
		t.Fatalf("AskRetry error = %v", err)
	}
	if got != "ping" {
		t.Fatalf("AskRetry reply = %v", got)
	}
	if sys.DeadLetters() < 2 {
		t.Fatalf("deadletters = %d, want >= 2 (the dropped requests)", sys.DeadLetters())
	}
}

// injectorFunc adapts a function to faults.Injector for tests.
type injectorFunc func(faults.Op) faults.Decision

func (f injectorFunc) Decide(op faults.Op) faults.Decision { return f(op) }

func TestAskRetryExhaustsAttempts(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	_, err := AskRetry(sys, blackhole, "anyone?", RetryConfig{
		Attempts: 3, Timeout: 5 * time.Millisecond, Backoff: time.Millisecond,
	})
	if !errors.Is(err, ErrAskTimeout) {
		t.Fatalf("AskRetry error = %v, want wrapped ErrAskTimeout", err)
	}
}

func TestAskRetryRespectsBudget(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	start := time.Now()
	_, err := AskRetry(sys, blackhole, "anyone?", RetryConfig{
		Attempts: 1000,
		Timeout:  10 * time.Millisecond,
		Backoff:  time.Millisecond,
		Budget:   50 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure")
	}
	if elapsed > time.Second {
		t.Fatalf("AskRetry ran %v; budget of 50ms was not honored", elapsed)
	}
}

// TestAskRetryCtxCancelledMidBackoff is the regression test for the bug
// where AskRetry slept out its entire backoff schedule after the caller had
// already gone away: cancellation must interrupt the sleep, not wait for it.
func TestAskRetryCtxCancelledMidBackoff(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// Long backoffs: without ctx support this call sits asleep for ~20s.
		_, err := AskRetryCtx(ctx, sys, blackhole, "anyone?", RetryConfig{
			Attempts: 10,
			Timeout:  10 * time.Millisecond,
			Backoff:  10 * time.Second,
		})
		done <- err
	}()
	// Let the first attempt time out and the backoff sleep begin.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("cancellation took %v to be honored; backoff sleep was not interrupted", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AskRetryCtx ignored cancellation and kept sleeping")
	}
}

// TestAskRetryCtxCancelledBeforeCall returns immediately without an attempt.
func TestAskRetryCtxCancelledBeforeCall(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	var calls atomic.Int64
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) {
		calls.Add(1)
		ctx.Reply(msg)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AskRetryCtx(ctx, sys, echo, 1, RetryConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("cancelled-before-call still made %d attempts", calls.Load())
	}
}

// TestAskRetryCtxCancelledDuringAttempt: cancellation inside the per-attempt
// reply wait also returns promptly.
func TestAskRetryCtxCancelledDuringAttempt(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	blackhole := sys.MustSpawn("blackhole", func(ctx *Context, msg any) {})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := AskRetryCtx(ctx, sys, blackhole, 1, RetryConfig{
		Attempts: 2, Timeout: 10 * time.Second, Backoff: time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("took %v; the in-attempt wait ignored cancellation", elapsed)
	}
}

func TestAskRetryFailsFastOnStoppedActor(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	target := sys.MustSpawn("target", func(ctx *Context, msg any) { ctx.Stop() })
	target.Tell("die")
	sys.Await(target)
	start := time.Now()
	_, err := AskRetry(sys, target, 1, RetryConfig{Attempts: 50, Timeout: time.Second, Backoff: time.Millisecond})
	if !errors.Is(err, ErrActorStopped) {
		t.Fatalf("error = %v, want ErrActorStopped", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("AskRetry should not retry a stopped actor")
	}
}
