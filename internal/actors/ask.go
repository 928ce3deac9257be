package actors

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ErrAskTimeout is returned by Ask when no reply arrives in time.
var ErrAskTimeout = errors.New("actors: ask timed out")

// ErrActorStopped is returned by Ask when the target actor is already
// stopped: the request deadletters immediately, so instead of waiting out
// the full timeout the ask fails fast. (A supervised actor in a restart
// backoff is *not* stopped — its mailbox keeps accepting messages.)
var ErrActorStopped = errors.New("actors: target actor is stopped")

// ErrPeerUnreachable is returned by Ask when the target is a proxy (remote)
// Ref whose forwarding path refused the request — the peer's link is down or
// its outbox is full. The ask fails fast like ErrActorStopped, but the
// condition is transient: the peer may reconnect, so AskRetry treats it as
// retryable and keeps backing off until the link heals or the budget runs
// out.
var ErrPeerUnreachable = errors.New("actors: remote peer unreachable")

// ErrOverloaded is returned by Ask when a proxy shed the request: the
// remote link's outbox/credit window had no room. Like ErrPeerUnreachable it
// is transient — the backlog drains — so AskRetry retries it with backoff
// rather than failing the call.
var ErrOverloaded = errors.New("actors: target overloaded")

// ErrShardMoving is returned by Ask when the target grain's shard is
// mid-handoff between cluster nodes (internal/cluster) and the request could
// be neither delivered nor buffered. Transient by construction: the
// rebalance completes and the next resolve finds the new owner, so AskRetry
// treats it exactly like ErrOverloaded — retried with backoff, never
// fail-fast.
var ErrShardMoving = errors.New("actors: target shard is moving")

// Ask sends msg to ref and waits for one reply, bridging the asynchronous
// actor world to synchronous callers (Scala's `!?` / ask pattern). The
// request's sender is a one-shot reply Ref, not an actor (see askReply). If
// the target is already stopped the call fails fast with ErrActorStopped
// rather than waiting out the timeout. A message lost to an injected fault
// is indistinguishable from a slow reply and still times out — that is what
// AskRetry is for.
func Ask(sys *System, ref *Ref, msg any, timeout time.Duration) (any, error) {
	return askCtx(context.Background(), sys, ref, msg, timeout)
}

// askCtx is Ask with a context: a cancelled ctx abandons the wait
// immediately and returns ctx.Err().
func askCtx(ctx context.Context, sys *System, ref *Ref, msg any, timeout time.Duration) (any, error) {
	r, err := sys.newAskReply()
	if err != nil {
		return nil, err
	}
	defer sys.dropAskReply(r)
	if ref == nil || ref.sys != sys {
		return nil, ErrActorStopped
	}
	switch sys.send(ref, Envelope{Msg: msg, Sender: &r.ref}) {
	case statusDead:
		return nil, ErrActorStopped
	case statusUnreachable:
		return nil, ErrPeerUnreachable
	case statusOverloaded:
		return nil, ErrOverloaded
	case statusMoving:
		return nil, ErrShardMoving
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-r.ch:
		return m, nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-timer.C:
		err = ErrAskTimeout
	}
	if !r.done.CompareAndSwap(false, true) {
		return <-r.ch, nil // a reply claimed the slot as the wait ended
	}
	return nil, err
}

// askReply is the one-shot reply Ref of one Ask (compare Akka's
// PromiseActorRef). While the Ask waits it sits in the system's ask table,
// so System.ByID finds it for remote replies addressed by raw ID. The first
// reply claims it and goes to the caller; a later one — a duplicate, or one
// arriving after the Ask returned — deadletters as DLDead, as a send to a
// stopped actor does.
type askReply struct {
	ref  Ref
	done atomic.Bool // claimed by the first reply, or by the Ask returning
	ch   chan any    // buffered: the claiming reply never blocks
}

// newAskReply registers a fresh reply Ref; after Shutdown it fails with
// ErrSystemStopped, as Spawn does.
func (s *System) newAskReply() (*askReply, error) {
	r := &askReply{ch: make(chan any, 1)}
	r.ref = Ref{id: s.nextID.Add(1), name: "ask-reply", sys: s, reply: r}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, ErrSystemStopped
	}
	s.asks[r.ref.id] = r
	return r, nil
}

// dropAskReply closes r and removes it from the ask table.
func (s *System) dropAskReply(r *askReply) {
	r.done.Store(true)
	s.mu.Lock()
	delete(s.asks, r.ref.id)
	s.mu.Unlock()
}

// deliverReply hands e to the Ask waiting on reply Ref to, recording the
// receive (so a Recorder pairs it with its send) and sealing its trace span
// there. A control message, or any send after the first, deadletters.
func (s *System) deliverReply(to *Ref, e Envelope, ctrl bool) deliverStatus {
	if ctrl || !to.reply.done.CompareAndSwap(false, true) {
		s.deadletterKind(to, e, DLDead)
		return statusDead
	}
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RecordReceive(to.String(), e.traceID, fmt.Sprintf("%T", e.Msg))
	}
	if sp := e.Span; sp != nil {
		now := trace.SpanNow()
		sp.Mark(trace.StageMailbox, now)
		sp.Finish(now)
	}
	to.reply.ch <- e.Msg
	return statusDelivered
}

// RetryConfig shapes AskRetry's persistence.
type RetryConfig struct {
	// Attempts is the maximum number of asks (default 3, minimum 1).
	Attempts int
	// Timeout is the per-attempt reply timeout (default 1s).
	Timeout time.Duration
	// Backoff is the sleep before the second attempt; it doubles per retry
	// (default 1ms when unset and Attempts > 1).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 250ms).
	MaxBackoff time.Duration
	// Jitter randomizes each backoff by ±Jitter fraction (e.g. 0.2 → ±20%),
	// de-synchronizing retry storms. Zero means no jitter.
	Jitter float64
	// Budget, when positive, caps the total wall-clock time across all
	// attempts and backoffs; when it runs out AskRetry stops retrying.
	Budget time.Duration
	// Seed makes the jitter deterministic (0 uses a fixed default seed).
	Seed int64
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.Attempts < 1 {
		rc.Attempts = 3
	}
	if rc.Timeout <= 0 {
		rc.Timeout = time.Second
	}
	if rc.Backoff <= 0 && rc.Attempts > 1 {
		rc.Backoff = time.Millisecond
	}
	if rc.MaxBackoff <= 0 {
		rc.MaxBackoff = 250 * time.Millisecond
	}
	return rc
}

// AskRetry is Ask with a retry budget: timeouts are retried with jittered
// exponential backoff until a reply arrives, attempts are exhausted, or the
// wall-clock budget runs out. It is the at-least-once delivery layer that
// makes lossy (fault-injected) message paths usable: receivers must treat
// retried requests idempotently. ErrActorStopped is not retried — a stopped
// actor will not come back as the same Ref. ErrPeerUnreachable,
// ErrOverloaded, and ErrShardMoving *are* retried: a partitioned peer can
// heal, an overloaded target drains its backlog, and a moving shard lands on
// its new owner — the backoff schedule is exactly what rides out all three.
func AskRetry(sys *System, ref *Ref, msg any, rc RetryConfig) (any, error) {
	return AskRetryCtx(context.Background(), sys, ref, msg, rc)
}

// AskRetryCtx is AskRetry bounded by a context. Cancellation is honored
// everywhere the call can linger: between backoff sleeps (a cancelled ctx
// no longer burns the remaining retry budget asleep), while waiting out an
// attempt's reply timeout, and before each new attempt. It returns ctx.Err()
// as soon as the cancellation is observed.
func AskRetryCtx(ctx context.Context, sys *System, ref *Ref, msg any, rc RetryConfig) (any, error) {
	rc = rc.withDefaults()
	start := time.Now()
	b := backoff{rc: rc, next: rc.Backoff}
	var lastErr error
	for attempt := 1; attempt <= rc.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 1 {
			d := b.step()
			if rc.Budget > 0 && time.Since(start)+d > rc.Budget {
				break
			}
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
		timeout := rc.Timeout
		if rc.Budget > 0 {
			if left := rc.Budget - time.Since(start); left <= 0 {
				break
			} else if left < timeout {
				timeout = left
			}
		}
		r, err := askCtx(ctx, sys, ref, msg, timeout)
		if err == nil {
			return r, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		if errors.Is(err, ErrActorStopped) || errors.Is(err, ErrSystemStopped) {
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = ErrAskTimeout
	}
	return nil, fmt.Errorf("actors: ask retry budget exhausted: %w", lastErr)
}

// backoff is AskRetry's sleep schedule: doubling from rc.Backoff up to
// rc.MaxBackoff, each sleep scaled by ±rc.Jitter. The jitter RNG is seeded
// on first use: seeding costs ~5KB, and most calls never back off.
type backoff struct {
	rc   RetryConfig
	next time.Duration
	rng  *rand.Rand
}

func (b *backoff) step() time.Duration {
	d := b.next
	if b.rc.Jitter > 0 {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(b.rc.Seed + 0x5eed))
		}
		d = time.Duration(float64(d) * (1 + b.rc.Jitter*(2*b.rng.Float64()-1)))
	}
	b.next = min(2*b.next, b.rc.MaxBackoff)
	return d
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
