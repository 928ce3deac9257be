package actors

import (
	"os"
	"testing"
	"time"

	"repro/internal/trace"
)

func waitSpans(t *testing.T, tr *trace.Tracer, n int) []trace.SpanView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if spans := tr.Spans(); len(spans) >= n {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("tracer never collected %d spans (have %d)", n, len(tr.Spans()))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTracedTellLocal pins origination and the local ledger: a Tell into a
// traced system originates a root span that closes its mailbox stage at
// dequeue and its handler stage at return, telescoping exactly.
func TestTracedTellLocal(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	tr.SetNode("local")
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	done := make(chan struct{}, 1)
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		if ctx.Span() == nil {
			t.Error("handler sees no span on a traced delivery")
		}
		done <- struct{}{}
	})
	sink.Tell("hello")
	<-done
	v := waitSpans(t, tr, 1)[0]
	if v.Actor != "sink" || v.Msg != "string" || v.Node != "local" {
		t.Fatalf("span identity wrong: %+v", v)
	}
	if v.End == 0 || v.Dead != "" {
		t.Fatalf("span not sealed delivered: %+v", v)
	}
	if v.Stages[trace.StageMailbox] <= 0 || v.Stages[trace.StageHandler] <= 0 {
		t.Fatalf("mailbox/handler stages empty: %v", v.Stages)
	}
	if v.StageSum() != int64(v.Duration()) {
		t.Fatalf("ledger does not telescope: sum %d, duration %d", v.StageSum(), v.Duration())
	}
}

// TestTracedChildSpans: an in-handler Send continues the trace — the
// downstream hop carries the same TraceID with Parent linking to the
// upstream span.
func TestTracedChildSpans(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	done := make(chan struct{}, 1)
	second := sys.MustSpawn("second", func(ctx *Context, msg any) { done <- struct{}{} })
	first := sys.MustSpawn("first", func(ctx *Context, msg any) { ctx.Send(second, msg) })
	first.Tell(42)
	<-done
	spans := waitSpans(t, tr, 2)
	byActor := map[string]trace.SpanView{}
	for _, v := range spans {
		byActor[v.Actor] = v
	}
	f, s := byActor["first"], byActor["second"]
	if f.Trace != s.Trace {
		t.Fatalf("child did not continue the trace: %x vs %x", f.Trace, s.Trace)
	}
	if s.Parent != f.ID {
		t.Fatalf("child parent = %x, want first's ID %x", s.Parent, f.ID)
	}
}

// TestTracedDeadLetterSealsSpan: a traced message that deadletters seals
// its span with the deadletter kind, so a trace that died stays
// inspectable, attributed up to the loss point.
func TestTracedDeadLetterSealsSpan(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	dead := sys.MustSpawn("dead", func(ctx *Context, msg any) {})
	sys.Stop(dead)
	sys.Await(dead)
	dead.Tell("late")
	v := waitSpans(t, tr, 1)[0]
	if v.Dead != DLDead.String() {
		t.Fatalf("span dead kind = %q, want %q", v.Dead, DLDead.String())
	}
}

// TestUntracedSystemOriginatesNothing: without a Tracer no spans exist and
// the handler sees none — the zero-cost default.
func TestUntracedSystemOriginatesNothing(t *testing.T) {
	sys := NewSystem(Config{})
	defer sys.Shutdown()
	done := make(chan struct{}, 1)
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		if ctx.Span() != nil {
			t.Error("untraced system delivered a span")
		}
		done <- struct{}{}
	})
	sink.Tell("x")
	<-done
	if sink.sys.Tracer() != nil {
		t.Fatal("system has a tracer")
	}
}

// TestTakeSpanTransfersOwnership: a handler that takes the span owns the
// seal — processOne must not finish it, and the taker's Finish publishes
// exactly one span.
func TestTakeSpanTransfersOwnership(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	taken := make(chan *trace.Span, 1)
	router := sys.MustSpawn("router", func(ctx *Context, msg any) {
		sp := ctx.TakeSpan()
		sp.Mark(trace.StageHandler, trace.SpanNow())
		taken <- sp
	})
	router.Tell("route-me")
	sp := <-taken
	// Give processOne a chance to (wrongly) seal it.
	time.Sleep(10 * time.Millisecond)
	if sp.Finished() {
		t.Fatal("processOne sealed a taken span")
	}
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("ring holds %d spans before the taker finished", n)
	}
	sp.Finish(trace.SpanNow())
	if v := waitSpans(t, tr, 1)[0]; v.Dead != "" {
		t.Fatalf("taken span sealed dead: %+v", v)
	}
}

// TestTraceOverheadSmoke is the CI bound for the tracing tentpole: with
// default 1-in-64 sampling, the traced Tell path must stay within 1.5x of
// the untraced baseline (the generous CI multiple of the issue's target,
// same rationale as TestInstrumentationOverheadSmoke). Opt-in via
// TRACE_OVERHEAD_SMOKE=1; see .github/workflows/ci.yml.
func TestTraceOverheadSmoke(t *testing.T) {
	if os.Getenv("TRACE_OVERHEAD_SMOKE") == "" {
		t.Skip("set TRACE_OVERHEAD_SMOKE=1 to run the overhead bound")
	}
	const senders, msgs, reps = 8, 20000, 5
	best := func(cfg Config) float64 {
		b := tellThroughputOnce(cfg, senders, msgs) // warmup
		for i := 0; i < reps; i++ {
			if v := tellThroughputOnce(cfg, senders, msgs); v < b {
				b = v
			}
		}
		return b
	}
	plain := best(Config{})
	sampled := best(Config{Tracer: trace.NewTracer(64, 0)})
	every := best(Config{Tracer: trace.NewTracer(1, 0)})
	t.Logf("untraced %.1f ns/op, 1/64 sampled %.1f ns/op (%.1f%%), every-message %.1f ns/op (%.1f%%)",
		plain, sampled, 100*(sampled-plain)/plain, every, 100*(every-plain)/plain)
	if sampled > plain*1.5 {
		t.Fatalf("1/64-sampled Tell %.1f ns/op exceeds 1.5x untraced %.1f ns/op", sampled, plain)
	}
}

// TestTracedAskReplySpan: a traced Ask's reply continues the trace as a
// child span that is sealed, delivered, at the one-shot reply Ref, with a
// ledger that telescopes.
func TestTracedAskReplySpan(t *testing.T) {
	tr := trace.NewTracer(1, 0)
	sys := NewSystem(Config{Tracer: tr})
	defer sys.Shutdown()
	echo := sys.MustSpawn("echo", func(ctx *Context, msg any) { ctx.Reply(msg) })
	if got, err := Ask(sys, echo, "ping", time.Second); err != nil || got != "ping" {
		t.Fatalf("Ask = %v, %v", got, err)
	}
	byActor := map[string]trace.SpanView{}
	for _, v := range waitSpans(t, tr, 2) {
		byActor[v.Actor] = v
	}
	req, rep := byActor["echo"], byActor["ask-reply"]
	if rep.ID == 0 || rep.Trace != req.Trace || rep.Parent != req.ID {
		t.Fatalf("reply span does not continue the request's trace: req %+v rep %+v", req, rep)
	}
	if rep.End == 0 || rep.Dead != "" {
		t.Fatalf("reply span not sealed delivered: %+v", rep)
	}
	if rep.StageSum() != int64(rep.Duration()) {
		t.Fatalf("reply ledger does not telescope: sum %d, duration %d", rep.StageSum(), rep.Duration())
	}
}
