package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies trace events.
type Kind int

// Event kinds recorded by the runtimes and the pseudocode interpreter.
const (
	KindLocal      Kind = iota // local computation step
	KindRead                   // shared-variable read
	KindWrite                  // shared-variable write
	KindAcquire                // lock/exclusive-access acquire
	KindRelease                // lock/exclusive-access release
	KindSend                   // message send
	KindReceive                // message receive
	KindWait                   // condition wait
	KindNotify                 // condition notify
	KindSpawn                  // task creation
	KindExit                   // task termination
	KindFault                  // injected fault (drop/delay/panic) on an operation
	KindRestart                // supervised task restarted after a failure
	KindBecome                 // actor swapped its behavior (handler generation change)
	KindDeadLetter             // message that could not be delivered (see actors.DeadLetterKind)
)

var kindNames = map[Kind]string{
	KindLocal:      "local",
	KindRead:       "read",
	KindWrite:      "write",
	KindAcquire:    "acquire",
	KindRelease:    "release",
	KindSend:       "send",
	KindReceive:    "receive",
	KindWait:       "wait",
	KindNotify:     "notify",
	KindSpawn:      "spawn",
	KindExit:       "exit",
	KindFault:      "fault",
	KindRestart:    "restart",
	KindBecome:     "become",
	KindDeadLetter: "deadletter",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one recorded step of a concurrent execution.
type Event struct {
	Seq    int         // global sequence number in the recorded order
	TS     int64       // wall-clock unix nanoseconds at record time (0 in pre-TS traces)
	Task   string      // task/actor/thread identifier
	Kind   Kind        //
	Object string      // variable, lock, mailbox, or message name
	Detail string      // free-form payload (value written, message body, ...)
	Clock  VectorClock // causal timestamp at the time of the event
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s %s %s %s", e.Seq, e.Task, e.Kind, e.Object, e.Detail, e.Clock)
}

// Recorder accumulates events from concurrently executing tasks and stamps
// them with vector clocks. It is safe for concurrent use.
//
// A Recorder has three storage modes, chosen at construction:
//
//   - NewRecorder: unbounded slice, full vector clocks. The test/teaching
//     mode the rest of the repo grew up with.
//   - NewRecorderCap: the same single-lock recorder bounded to a fixed
//     capacity with overwrite-oldest semantics; Seq stays globally
//     monotonic across evictions.
//   - NewFlightRecorder: sharded per-task ring buffers with no vector
//     clocks, built to stay always-on next to the hot paths. See
//     flight.go.
//
// All modes share the dump hook: OnDump registers a callback, Dump snapshots
// and fires it, and recording a KindFault event (fault injector fired,
// watchdog tripped, deadline missed) auto-fires it with at most one dump
// per autoDumpMinGap.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// start is the ring head once a bounded recorder has wrapped; events
	// are in recorded order at events[start:], events[:start].
	start int
	// total is the all-time event count and the Seq source, so Seq stays
	// monotonic even after eviction drops the early events.
	total    int
	capacity int   // 0 = unbounded
	dropped  int64 // events evicted by the ring
	clocks   map[string]VectorClock
	// pending send clocks keyed by message identity, consumed by Receive.
	inflight map[string][]VectorClock

	// flight, when non-nil, replaces the single-lock storage above with
	// sharded per-task rings (NewFlightRecorder).
	flight *flightRec

	dumpFn   atomic.Pointer[func(reason string, events []Event)]
	lastDump atomic.Int64 // unixnano of the last auto-dump, for rate limiting

	// eventFn, when set via OnEvent, observes every recorded event online.
	// On a clocked recorder it fires under the recorder lock, so a detector
	// sees events in Seq order with their final (post-merge) clocks.
	eventFn atomic.Pointer[func(Event)]
}

// OnEvent registers fn to be called for every event as it is recorded (nil
// clears it). This is the tap the online bug detectors (internal/detect)
// attach to.
//
// On the locked recorders (NewRecorder/NewRecorderCap) fn runs while the
// recorder's lock is held: invocations are serialized and arrive in Seq
// order, and fn must not call back into the Recorder. On a flight recorder
// fn runs under the per-task ring lock instead, so cross-task ordering is
// not guaranteed (and events carry no vector clocks there).
func (r *Recorder) OnEvent(fn func(Event)) {
	if fn == nil {
		r.eventFn.Store(nil)
		return
	}
	r.eventFn.Store(&fn)
}

func (r *Recorder) tapEvent(ev Event) {
	if fn := r.eventFn.Load(); fn != nil {
		(*fn)(ev)
	}
}

// NewRecorder returns an empty, unbounded Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		clocks:   make(map[string]VectorClock),
		inflight: make(map[string][]VectorClock),
	}
}

// NewRecorderCap returns a Recorder that retains at most capacity events,
// overwriting the oldest once full (Seq keeps counting, so consumers can
// detect the gap via Dropped or the first retained Seq). capacity <= 0
// means unbounded.
func NewRecorderCap(capacity int) *Recorder {
	r := NewRecorder()
	if capacity > 0 {
		r.capacity = capacity
	}
	return r
}

func (r *Recorder) clockOf(task string) VectorClock {
	c, ok := r.clocks[task]
	if !ok {
		c = NewVectorClock()
		r.clocks[task] = c
	}
	return c
}

// Record logs a plain event for task, advancing its vector clock.
func (r *Recorder) Record(task string, kind Kind, object, detail string) Event {
	var ev Event
	if r.flight != nil {
		ev = r.flight.record(task, kind, object, detail)
		r.tapEvent(ev)
	} else {
		r.mu.Lock()
		ev = r.record(task, kind, object, detail)
		r.mu.Unlock()
	}
	r.maybeAutoDump(kind)
	return ev
}

func (r *Recorder) record(task string, kind Kind, object, detail string) Event {
	c := r.clockOf(task)
	c.Tick(task)
	ev := Event{
		Seq:    r.total,
		TS:     time.Now().UnixNano(),
		Task:   task,
		Kind:   kind,
		Object: object,
		Detail: detail,
		Clock:  c.Copy(),
	}
	r.total++
	if r.capacity > 0 && len(r.events) == r.capacity {
		r.events[r.start] = ev
		r.start = (r.start + 1) % r.capacity
		r.dropped++
	} else {
		r.events = append(r.events, ev)
	}
	r.tapEvent(ev)
	return ev
}

// RecordSend logs a message send and remembers the sender's clock so the
// matching RecordReceive establishes the happened-before edge. msgID must
// be unique per in-flight message (e.g. "mailbox/name#7"). A flight
// recorder skips the clock bookkeeping: causality there comes from Seq
// order, not vector clocks.
func (r *Recorder) RecordSend(task, msgID, detail string) Event {
	if r.flight != nil {
		ev := r.flight.record(task, KindSend, msgID, detail)
		r.tapEvent(ev)
		return ev
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := r.record(task, KindSend, msgID, detail)
	r.inflight[msgID] = append(r.inflight[msgID], ev.Clock.Copy())
	return ev
}

// RecordReceive logs a message receive, merging the sender's clock if the
// send was recorded.
func (r *Recorder) RecordReceive(task, msgID, detail string) Event {
	if r.flight != nil {
		ev := r.flight.record(task, KindReceive, msgID, detail)
		r.tapEvent(ev)
		return ev
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.clockOf(task)
	if sends := r.inflight[msgID]; len(sends) > 0 {
		c.Merge(sends[0])
		r.inflight[msgID] = sends[1:]
		if len(r.inflight[msgID]) == 0 {
			delete(r.inflight, msgID)
		}
	}
	return r.record(task, KindReceive, msgID, detail)
}

// RecordSync logs an event on task that synchronizes-with the most recent
// event on object (e.g. lock release → acquire). The recorder merges the
// releasing task's clock into the acquiring task's clock.
func (r *Recorder) RecordSync(task string, kind Kind, object, detail string, syncWith VectorClock) Event {
	var ev Event
	if r.flight != nil {
		ev = r.flight.record(task, kind, object, detail)
		r.tapEvent(ev)
	} else {
		r.mu.Lock()
		if syncWith != nil {
			r.clockOf(task).Merge(syncWith)
		}
		ev = r.record(task, kind, object, detail)
		r.mu.Unlock()
	}
	r.maybeAutoDump(kind)
	return ev
}

// Events returns a copy of the retained events in recorded order (for a
// bounded or flight recorder this is the most recent window, not the full
// history; see Total and Dropped).
func (r *Recorder) Events() []Event {
	if r.flight != nil {
		return r.flight.snapshot()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r.flight != nil {
		return r.flight.retained()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Total returns the all-time number of recorded events, including any that
// a bounded recorder has since evicted.
func (r *Recorder) Total() int64 {
	if r.flight != nil {
		return r.flight.seq.Load()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.total)
}

// Dropped returns how many events have been evicted to honor the capacity
// bound. Always zero for an unbounded recorder.
func (r *Recorder) Dropped() int64 {
	if r.flight != nil {
		return r.flight.dropped()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Tasks returns the sorted set of task IDs that appear in the trace.
func (r *Recorder) Tasks() []string {
	if r.flight != nil {
		return r.flight.tasks()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range r.events {
		seen[e.Task] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// String renders the full trace, one event per line.
func (r *Recorder) String() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Race describes a pair of conflicting, causally unordered accesses to the
// same object where at least one access is a write.
type Race struct {
	First, Second Event
}

func (r Race) String() string {
	return fmt.Sprintf("race on %q: %v || %v", r.First.Object, r.First, r.Second)
}

// DetectRaces scans events for conflicting concurrent accesses (read/write
// or write/write on the same object by different tasks with concurrent
// vector clocks). This is a happens-before race detector over a recorded
// trace, used to demonstrate the "race condition" concept from the course.
func DetectRaces(events []Event) []Race {
	var races []Race
	isAccess := func(k Kind) bool { return k == KindRead || k == KindWrite }
	for i := 0; i < len(events); i++ {
		a := events[i]
		if !isAccess(a.Kind) {
			continue
		}
		for j := i + 1; j < len(events); j++ {
			b := events[j]
			if !isAccess(b.Kind) || a.Object != b.Object || a.Task == b.Task {
				continue
			}
			if a.Kind == KindRead && b.Kind == KindRead {
				continue
			}
			if a.Clock.Concurrent(b.Clock) {
				races = append(races, Race{First: a, Second: b})
			}
		}
	}
	return races
}

// Ordering is the result of a happens-before query between two events.
type Ordering int

const (
	OrderConcurrent Ordering = iota // neither event causally precedes the other
	OrderBefore                     // first event happens-before the second
	OrderAfter                      // second event happens-before the first
	OrderEqual                      // identical clocks (same event, or no clocks at all)
)

func (o Ordering) String() string {
	switch o {
	case OrderBefore:
		return "before"
	case OrderAfter:
		return "after"
	case OrderEqual:
		return "equal"
	default:
		return "concurrent"
	}
}

// CausalOrder reports the happens-before relation between two events by
// their vector clocks. Events from a flight recorder carry no clocks and
// always compare OrderEqual; callers that need causality there must fall
// back to Seq order.
func CausalOrder(a, b Event) Ordering {
	switch {
	case a.Clock.Equal(b.Clock):
		return OrderEqual
	case a.Clock.Before(b.Clock):
		return OrderBefore
	case b.Clock.Before(a.Clock):
		return OrderAfter
	default:
		return OrderConcurrent
	}
}

// HappenedBefore reports whether a causally precedes b.
func HappenedBefore(a, b Event) bool { return CausalOrder(a, b) == OrderBefore }

// ConcurrentEvents reports whether a and b are causally unordered.
func ConcurrentEvents(a, b Event) bool { return CausalOrder(a, b) == OrderConcurrent }
