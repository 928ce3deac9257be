// Package actors implements the Actor model the course teaches with Scala:
// actors are computational entities that, in response to a message, can
// (1) send messages to other actors, (2) create new actors, and
// (3) designate the behavior for the next message (Become) — Hewitt's three
// axioms, quoted in the paper. Communication is asynchronous; the runtime
// can optionally perturb delivery order to exhibit the paper's point that
// "two messages sent concurrently can arrive in either order".
package actors

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/trace"
)

// Envelope carries a message together with its sender (which may be nil for
// sends from outside the actor system).
type Envelope struct {
	Msg    any
	Sender *Ref

	// Span is the distributed-tracing context riding this delivery, nil for
	// the (vast) untraced majority. The send path originates one for sampled
	// sends when the system has a Config.Tracer; conduits that already carry
	// a span (remote dispatch, cluster routing) attach it here so the hop
	// continues the trace instead of starting a new one.
	Span *trace.Span

	// noTrace marks an envelope that must not originate a new trace even if
	// sampling would pick it: in-handler sends of an untraced message (a
	// trace that starts mid-protocol has no root) and remote deliveries
	// (the origin node made the sampling decision).
	noTrace bool

	// traceID pairs this envelope's send and receive events when the
	// system runs with a trace.Recorder.
	traceID string

	// enqueuedAt is the send-side wall clock (unix nanoseconds), stamped
	// only when the system runs with Config.Obs so the dequeue side can
	// observe mailbox queue latency. Zero when instrumentation is off.
	enqueuedAt int64
}

// mailbox is an unbounded queue of envelopes: put never blocks, so a send
// never depends on the receiver's condition. Two implementations exist:
//
//   - ringMailbox (ring.go): the FIFO fast path — a chunked MPSC queue
//     with lock-free sends and batched dequeue. Used unless delivery is
//     perturbed (the common case).
//   - lockMailbox (below): mutex + condvar around a slice, dequeuing a
//     seeded random pending envelope per take (Config.PerturbSeed).
//
// Concurrency contract shared by both: put/close(false)/size may be called
// from any goroutine; takeN/tryTake/close(true) are single-consumer — only
// the goroutine (or pooled worker holding the cell's schedule slot) that
// owns the actor may call them.
type mailbox interface {
	// put enqueues an envelope without blocking. It reports false when the
	// mailbox is closed; the caller deadletters the envelope as DLClosed.
	put(e Envelope) bool
	// takeN appends up to max envelopes to buf, blocking until at least one
	// is available or the mailbox closes. ok is false when the mailbox is
	// closed and drained (buf is returned unchanged then).
	takeN(buf []Envelope, max int) (batch []Envelope, ok bool)
	// tryTake dequeues one envelope without blocking. ok is false when the
	// mailbox is empty (or closed and drained).
	tryTake() (e Envelope, ok bool)
	// close marks the mailbox closed and wakes a blocked taker.
	// When discard is true it returns what was still queued (for deadletter
	// accounting); pending messages stay takeable otherwise.
	close(discard bool) []Envelope
	// size returns the number of queued envelopes.
	size() int
}

// newMailbox picks the implementation for one actor: the lock mailbox when
// perturb is non-nil (Config.PerturbSeed), the chunked MPSC ring otherwise.
//
// sample, when non-zero (a power of two), makes the mailbox stamp
// Envelope.enqueuedAt on one in sample accepted puts, using the enqueue
// tick each implementation already maintains (the ring's reservation
// counter, the lock mailbox's under-mutex sequence) — so latency sampling
// adds no shared state to the send path.
func newMailbox(perturb *rand.Rand, sample uint64) mailbox {
	if perturb == nil {
		return newRingMailbox(sample)
	}
	return newLockMailbox(perturb, sample)
}

// lockMailbox is the mutex-guarded slice mailbox. When perturb is non-nil,
// dequeue picks a uniformly random pending envelope instead of the head,
// modeling unordered asynchronous delivery.
//
// Dequeue is amortized O(1): a head index advances instead of re-slicing,
// and the backing array is compacted once the dead prefix dominates. The
// taker is only signalled when it is actually waiting, so the uncontended
// enqueue path never pays for a futex wake.
type lockMailbox struct {
	mu          sync.Mutex
	notEmpty    *sync.Cond // takers wait here
	takeWaiters int        // takers blocked in notEmpty.Wait
	queue       []Envelope
	head        int // queue[head:] are the live entries
	closed      bool
	perturb     *rand.Rand
	sample      uint64 // latency sampling rate (0 = off); see newMailbox
	seq         uint64 // accepted puts, the sampling tick; guarded by mu
}

func newLockMailbox(perturb *rand.Rand, sample uint64) *lockMailbox {
	m := &lockMailbox{perturb: perturb, sample: sample}
	m.notEmpty = sync.NewCond(&m.mu)
	return m
}

// live returns the number of queued envelopes. Caller holds mu.
func (m *lockMailbox) live() int { return len(m.queue) - m.head }

func (m *lockMailbox) put(e Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.sample != 0 && m.seq&(m.sample-1) == 0 {
		e.enqueuedAt = time.Now().UnixNano()
	}
	m.seq++
	m.queue = append(m.queue, e)
	if m.takeWaiters > 0 {
		m.notEmpty.Signal()
	}
	return true
}

// takeOne dequeues the next envelope, blocking until one is available or
// the mailbox closes. ok is false if the mailbox closed and drained.
func (m *lockMailbox) takeOne() (e Envelope, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.live() == 0 && !m.closed {
		m.takeWaiters++
		m.notEmpty.Wait()
		m.takeWaiters--
	}
	return m.popLocked()
}

func (m *lockMailbox) tryTake() (e Envelope, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.popLocked()
}

// popLocked removes one envelope (random under perturbation). Caller holds
// mu.
func (m *lockMailbox) popLocked() (e Envelope, ok bool) {
	if m.live() == 0 {
		return Envelope{}, false
	}
	idx := m.head
	if m.perturb != nil && m.live() > 1 {
		idx = m.head + m.perturb.Intn(m.live())
	}
	e = m.queue[idx]
	if idx != m.head {
		m.queue[idx] = m.queue[m.head]
	}
	m.queue[m.head] = Envelope{} // release references for the GC
	m.head++
	// Compact once the dead prefix dominates a non-trivial backlog.
	if m.head > 64 && m.head*2 >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = Envelope{}
		}
		m.queue = m.queue[:n]
		m.head = 0
	}
	return e, true
}

// takeN on the lock mailbox intentionally dequeues a single envelope per
// call, so a perturbed mailbox keeps the seed's per-dequeue random draw.
// Batched dequeue is the ring mailbox's job.
func (m *lockMailbox) takeN(buf []Envelope, max int) ([]Envelope, bool) {
	e, ok := m.takeOne()
	if !ok {
		return buf, false
	}
	return append(buf, e), true
}

func (m *lockMailbox) close(discard bool) []Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	var drained []Envelope
	if discard {
		drained = append(drained, m.queue[m.head:]...)
		m.queue = nil
		m.head = 0
	}
	m.notEmpty.Broadcast()
	return drained
}

func (m *lockMailbox) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live()
}
