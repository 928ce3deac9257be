package actors

import (
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestRecorderEstablishesHappenedBefore is the cross-module integration of
// the actor runtime with the logical-clock machinery: a send must
// happen-before its receive, and a causal chain through two actors must be
// totally ordered while unrelated actors stay concurrent.
func TestRecorderEstablishesHappenedBefore(t *testing.T) {
	rec := trace.NewRecorder()
	sys := NewSystem(Config{Recorder: rec})
	defer sys.Shutdown()

	done := make(chan struct{})
	final := sys.MustSpawn("final", func(ctx *Context, msg any) {
		close(done)
		ctx.Stop()
	})
	middle := sys.MustSpawn("middle", func(ctx *Context, msg any) {
		ctx.Send(final, "relayed")
		ctx.Stop()
	})
	middle.Tell("origin")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("relay chain stalled")
	}
	sys.Shutdown()

	events := rec.Events()
	var sendToMiddle, recvAtMiddle, sendToFinal, recvAtFinal *trace.Event
	for i := range events {
		e := &events[i]
		switch {
		case e.Kind == trace.KindSend && e.Task == "external":
			sendToMiddle = e
		case e.Kind == trace.KindReceive && e.Task == middle.String():
			recvAtMiddle = e
		case e.Kind == trace.KindSend && e.Task == middle.String():
			sendToFinal = e
		case e.Kind == trace.KindReceive && e.Task == final.String():
			recvAtFinal = e
		}
	}
	if sendToMiddle == nil || recvAtMiddle == nil || sendToFinal == nil || recvAtFinal == nil {
		t.Fatalf("missing events in trace:\n%s", rec)
	}
	// The full causal chain must be ordered end to end.
	chain := []*trace.Event{sendToMiddle, recvAtMiddle, sendToFinal, recvAtFinal}
	for i := 0; i < len(chain)-1; i++ {
		if !chain[i].Clock.Before(chain[i+1].Clock) {
			t.Fatalf("event %d (%v) not happened-before event %d (%v)",
				i, chain[i], i+1, chain[i+1])
		}
	}
}

func TestRecorderIndependentActorsConcurrent(t *testing.T) {
	rec := trace.NewRecorder()
	sys := NewSystem(Config{Recorder: rec})
	defer sys.Shutdown()

	done := make(chan struct{}, 2)
	a := sys.MustSpawn("a", func(ctx *Context, msg any) { done <- struct{}{} })
	b := sys.MustSpawn("b", func(ctx *Context, msg any) { done <- struct{}{} })
	a.Tell(1)
	b.Tell(2)
	<-done
	<-done
	sys.Shutdown()

	var recvA, recvB *trace.Event
	events := rec.Events()
	for i := range events {
		e := &events[i]
		if e.Kind != trace.KindReceive {
			continue
		}
		if e.Task == a.String() {
			recvA = e
		}
		if e.Task == b.String() {
			recvB = e
		}
	}
	if recvA == nil || recvB == nil {
		t.Fatalf("missing receives:\n%s", rec)
	}
	if !recvA.Clock.Concurrent(recvB.Clock) {
		t.Fatalf("independent receives should be causally concurrent: %v vs %v",
			recvA.Clock, recvB.Clock)
	}
}

func TestRecorderPoisonPillNotRecorded(t *testing.T) {
	rec := trace.NewRecorder()
	sys := NewSystem(Config{Recorder: rec})
	ref := sys.MustSpawn("x", func(ctx *Context, msg any) {})
	sys.Stop(ref)
	sys.Await(ref)
	sys.Shutdown()
	for _, e := range rec.Events() {
		if e.Kind == trace.KindSend && e.Detail == "actors.stopMsg" {
			t.Fatalf("poison pill leaked into the trace: %v", e)
		}
	}
}

// TestRecorderPairsAskWithReply: an Ask's reply is recorded as a send by the
// replier and a receive at the reply Ref under one message ID, ordered by
// happened-before — the pairing the detectors (internal/detect) rely on.
func TestRecorderPairsAskWithReply(t *testing.T) {
	rec := trace.NewRecorder()
	sys := NewSystem(Config{Recorder: rec})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	if _, err := Ask(sys, echo, "ping", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var send, recv *trace.Event
	events := rec.Events()
	for i := range events {
		e := &events[i]
		switch {
		case e.Kind == trace.KindSend && e.Task == echo.String():
			send = e
		case e.Kind == trace.KindReceive && nameOfTask(e.Task) == "ask-reply":
			recv = e
		}
	}
	if send == nil || recv == nil {
		t.Fatalf("reply send/receive missing from trace:\n%s", rec)
	}
	if send.Object != recv.Object {
		t.Fatalf("reply send %q and receive %q carry different message IDs", send.Object, recv.Object)
	}
	if !send.Clock.Before(recv.Clock) {
		t.Fatalf("reply send %v not happened-before its receive %v", send, recv)
	}
}

// nameOfTask extracts the actor name from a Ref's String() ("actor(name#id)").
func nameOfTask(task string) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(task, "actor("), "#")
	return name
}
