package actors

import (
	"fmt"
	"sync"
)

// DispatchMode selects how actor mailboxes are driven.
type DispatchMode int

const (
	// Dedicated gives every actor its own goroutine that blocks on the
	// mailbox — the seed runtime's model. Behaviors may block freely
	// (channel ops, Ask); the cost is one goroutine
	// (~2KiB stack plus scheduler state) per actor, idle or not.
	Dedicated DispatchMode = iota
	// Pooled multiplexes every actor onto a bounded worker pool
	// (Config.PoolSize goroutines): an actor consumes no goroutine at all
	// until a message arrives, then is scheduled onto a worker for a slice
	// of up to Config.Throughput messages. This makes very large mostly-
	// idle actor populations (100k+) cheap. The trade: a behavior that
	// blocks indefinitely occupies a worker, so under Pooled dispatch
	// behaviors should communicate via messages rather than blocking
	// primitives (see docs/PERF.md).
	Pooled
)

func (d DispatchMode) String() string {
	switch d {
	case Dedicated:
		return "dedicated"
	case Pooled:
		return "pooled"
	default:
		return fmt.Sprintf("DispatchMode(%d)", int(d))
	}
}

// Cell scheduling states (cell.sched) under Pooled dispatch.
const (
	cellIdle      int32 = iota // not on the run queue, no worker owns it
	cellScheduled              // queued or being processed by a worker
)

// runQueue is the pool's FIFO of runnable cells: senders push on message
// arrival (via System.schedule, which de-dupes through cell.sched), workers
// pop. Amortized O(1) like the lock mailbox: a head index advances and the
// backing array compacts when the dead prefix dominates.
type runQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []*cell
	head    int
	waiters int
	closed  bool
}

func newRunQueue() *runQueue {
	rq := &runQueue{}
	rq.cond = sync.NewCond(&rq.mu)
	return rq
}

func (rq *runQueue) push(c *cell) {
	rq.mu.Lock()
	rq.q = append(rq.q, c)
	if rq.waiters > 0 {
		rq.cond.Signal()
	}
	rq.mu.Unlock()
}

// pop blocks for the next runnable cell; ok is false once the queue is
// closed and empty.
func (rq *runQueue) pop() (c *cell, ok bool) {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	for len(rq.q) == rq.head && !rq.closed {
		rq.waiters++
		rq.cond.Wait()
		rq.waiters--
	}
	if len(rq.q) == rq.head {
		return nil, false
	}
	c = rq.q[rq.head]
	rq.q[rq.head] = nil
	rq.head++
	if rq.head > 64 && rq.head*2 >= len(rq.q) {
		n := copy(rq.q, rq.q[rq.head:])
		for i := n; i < len(rq.q); i++ {
			rq.q[i] = nil
		}
		rq.q = rq.q[:n]
		rq.head = 0
	}
	return c, true
}

// depth returns the number of cells waiting on the run queue — the pooled
// dispatcher's backlog gauge.
func (rq *runQueue) depth() int {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	return len(rq.q) - rq.head
}

func (rq *runQueue) close() {
	rq.mu.Lock()
	rq.closed = true
	rq.cond.Broadcast()
	rq.mu.Unlock()
}

// schedule puts c on the run queue if it is not already there (Pooled mode
// only). The cellIdle→cellScheduled CAS guarantees a cell is queued at most
// once and never concurrently processed by two workers; the flag is
// released by the worker after its slice (runSlice), which re-checks the
// mailbox so a message that raced the release is never stranded.
func (s *System) schedule(c *cell) {
	if s.runq == nil {
		return
	}
	if c.sched.CompareAndSwap(cellIdle, cellScheduled) {
		s.runq.push(c)
	}
}

// worker is one pool goroutine: it drains the run queue, giving each
// runnable cell a bounded slice of messages.
func (s *System) worker() {
	defer s.workerWG.Done()
	for {
		c, ok := s.runq.pop()
		if !ok {
			return
		}
		s.runSlice(c)
	}
}

// runSlice processes up to Throughput messages for one cell, then yields
// the worker. On actor exit the schedule flag is left set so the dead cell
// can never be re-queued; otherwise the flag is released and the mailbox
// re-checked to close the release/send race.
func (s *System) runSlice(c *cell) {
	for i := 0; i < s.throughput; i++ {
		e, ok := c.mbox.tryTake()
		if !ok {
			break
		}
		if s.processOne(c, e) {
			s.teardown(c)
			return
		}
	}
	c.sched.Store(cellIdle)
	if c.mbox.size() > 0 {
		s.schedule(c)
	}
}

// runDedicated is one actor's dedicated goroutine (Dedicated mode): it
// blocks on the mailbox, draining batches of up to Throughput envelopes
// per takeN (a single atomic handoff on the ring mailbox). If the actor
// exits mid-batch, the already-dequeued remainder is deadlettered exactly
// as if it had still been queued at close.
func (s *System) runDedicated(c *cell) {
	// The batch buffer starts nil and grows through takeN's appends: an
	// actor that never sees a deep backlog never pays for a full
	// Throughput-sized buffer, which keeps spawn cheap.
	var buf []Envelope
	for {
		batch, ok := c.mbox.takeN(buf[:0], s.throughput)
		if !ok {
			s.teardown(c)
			return
		}
		for i, e := range batch {
			if s.processOne(c, e) {
				for _, rest := range batch[i+1:] {
					// Already dequeued but never processed: drained, like
					// the close-time drain in teardown.
					if s.conserve && !isControl(rest.Msg) {
						s.drained.Add(1)
					}
					s.deadletterKind(c.ref, rest, DLDead)
				}
				s.teardown(c)
				return
			}
		}
		buf = batch // keep the grown backing array for the next batch
	}
}
