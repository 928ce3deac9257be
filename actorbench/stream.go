package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/remote"
	"repro/internal/trace"
)

// The stream workload: producers on one remote.Node Ref.Tell sequenced
// messages through a proxy Ref to a sink on a second node. Every window
// ends with an actors.Ask barrier that the sink answers with its count for
// that producer, so the producer knows each message arrived before it sends
// more.

type streamMsg struct {
	Producer int
	Seq      int64 // 1, 2, ... per producer
	Sent     int64 // nowNS() at the Tell
	Traced   bool
}

type streamBarrier struct {
	Producer int
	Seq      int64 // the producer's last sent Seq
}

type streamAck struct {
	Count int64 // messages received from the producer, in order and once
	Bad   int64 // messages received out of order or twice
}

// sinkPhase hands the sink the recorders of the phase about to start (nil
// ones when it ends).
type sinkPhase struct {
	sl *timeSlicer
	sr *spanRec
}

func init() {
	remote.RegisterType(streamMsg{})
	remote.RegisterType(streamBarrier{})
	remote.RegisterType(streamAck{})
}

type stream struct {
	o         options
	producers int
	window    int
	near, far *remote.Node
	systems   []*actors.System
	tracers   []*trace.Tracer
	ref       *actors.Ref // proxy to the sink, on near
	sinkRef   *actors.Ref // the sink itself, on far
	seq       []int64     // per producer: last sent Seq
	acked     []int64     // per producer: count at the last barrier
	bad       []int64     // per producer: out-of-order count at the last barrier
	warming   bool
	drop      bool // injection armed: producer 0 skips one message

	// The sink's state, owned by the sink actor.
	sinkNext  []int64
	sinkCount []int64
	sinkBad   []int64
	sinkPhase
}

func newStream(rec record, o options, traced bool) (instance, error) {
	pp := rec.Workloads["stream"].Params
	s := &stream{o: o, producers: int(pp["producers"]), window: int(pp["window"])}
	s.seq = make([]int64, s.producers)
	s.acked = make([]int64, s.producers)
	s.bad = make([]int64, s.producers)
	s.sinkNext = make([]int64, s.producers)
	s.sinkCount = make([]int64, s.producers)
	s.sinkBad = make([]int64, s.producers)
	for i := range s.sinkNext {
		s.sinkNext[i] = 1
	}

	net := remote.NewMemNetwork()
	node := func(addr string) (*remote.Node, error) {
		var sys *actors.System
		if traced {
			tr := trace.NewTracer(tracerSample, tracerRing)
			tr.SetNode(addr)
			sys = actors.NewSystem(actors.Config{Tracer: tr})
			s.tracers = append(s.tracers, tr)
			s.systems = append(s.systems, sys)
		}
		return remote.NewNode(remote.Config{ListenAddr: addr, Transport: net.Endpoint(addr), System: sys})
	}
	var err error
	if s.near, err = node("stream-near"); err != nil {
		return nil, err
	}
	if s.far, err = node("stream-far"); err != nil {
		s.close()
		return nil, err
	}
	s.sinkRef = s.far.System().MustSpawn("sink", s.sink)
	s.far.Register("sink", s.sinkRef)
	if s.ref, err = s.near.RefFor("sink@" + s.far.Addr()); err == nil {
		err = s.near.Connect(s.far.Addr(), 10*time.Second)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("stream: %w", err)
	}
	s.warming = true
	ph, err := s.run(ms(pp["warmup_ms"]), nil)
	s.warming = false
	if err == nil && ph.failed > 0 {
		err = fmt.Errorf("%d messages failed", ph.failed)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("stream: warm-up: %w", err)
	}
	return s, nil
}

// sink is the benchmark's receiving actor: it checks per-producer FIFO
// order and exactly-once arrival, and records each message's delivery
// latency (Tell → sink entry).
func (s *stream) sink(ctx *actors.Context, msg any) {
	switch m := msg.(type) {
	case streamMsg:
		in := nowNS()
		if m.Seq == s.sinkNext[m.Producer] {
			s.sinkCount[m.Producer]++
			if s.sl != nil {
				s.sl.record(in, in-m.Sent)
			}
		} else {
			s.sinkBad[m.Producer]++
		}
		if m.Seq >= s.sinkNext[m.Producer] {
			s.sinkNext[m.Producer] = m.Seq + 1
		}
		if m.Traced && s.sr != nil {
			out := nowNS()
			s.sr.op(span{Op: m.Seq*int64(len(s.sinkNext)) + int64(m.Producer), Name: "message", Start: m.Sent, End: out},
				span{Name: "deliver", Start: m.Sent, End: in},
				span{Name: "handler", Start: in, End: out})
		}
	case streamBarrier:
		ctx.Reply(streamAck{Count: s.sinkCount[m.Producer], Bad: s.sinkBad[m.Producer]})
	case sinkPhase:
		s.sinkPhase = m
		ctx.Reply(true)
	}
}

func (s *stream) counters() layerCounts {
	var c layerCounts
	c.addNode(s.near)
	c.addNode(s.far)
	return c
}

// askSink sends a local control message to the sink and waits for it.
func (s *stream) askSink(msg any) (any, error) {
	return actors.Ask(s.far.System(), s.sinkRef, msg, 10*time.Second)
}

func (s *stream) run(d time.Duration, spans *spanLog) (*phase, error) {
	s.drop = s.o.inject == "drop" && !s.warming
	sl := startTimeSlicer(d)
	if _, err := s.askSink(sinkPhase{sl: sl, sr: spans.rec()}); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	before := s.counters()
	ackedBefore, lostBefore, badBefore := s.tally()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, s.producers)
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for p := 0; p < s.producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = s.produce(p, &stop, spans.rec())
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	_, err := s.askSink(sinkPhase{})
	if err = errors.Join(append(errs, err)...); err != nil {
		sl.finish()
		return nil, err
	}
	acked, lost, bad := s.tally()
	ph := &phase{elapsed: elapsed, slices: sl.finish(), counts: s.counters().plus(before, -1)}
	ph.ops = acked - ackedBefore
	ph.failed = lost - lostBefore + bad - badBefore
	return ph, nil
}

// produce runs one producer's windows until stop: window-1 Tells, then a
// barrier Ask whose reply must account for every message sent so far.
func (s *stream) produce(p int, stop *atomic.Bool, sr *spanRec) error {
	sys := s.near.System()
	for !stop.Load() {
		for k := 0; k < s.window-1; k++ {
			s.seq[p]++
			if p == 0 && s.drop {
				s.drop = false
				continue // the planted fault: this message is never sent
			}
			t0 := nowNS()
			s.ref.Tell(streamMsg{Producer: p, Seq: s.seq[p], Sent: t0, Traced: sr != nil})
			if sr != nil {
				sr.root(s.seq[p]*int64(s.producers)+int64(p), "tell", t0, nowNS())
			}
		}
		r, err := actors.Ask(sys, s.ref, streamBarrier{Producer: p, Seq: s.seq[p]}, 10*time.Second)
		if err != nil {
			return fmt.Errorf("stream: producer %d barrier at seq %d: %w", p, s.seq[p], err)
		}
		ack, ok := r.(streamAck)
		if !ok {
			return fmt.Errorf("stream: producer %d barrier: reply %#v", p, r)
		}
		s.acked[p], s.bad[p] = ack.Count, ack.Bad
	}
	return nil
}

// tally sums the producers' ledgers as of their last barriers: messages
// that arrived in order and once, messages sent that never arrived (shed or
// dropped), and messages that arrived out of order or twice.
func (s *stream) tally() (acked, lost, bad int64) {
	for p := range s.seq {
		acked += s.acked[p]
		bad += s.bad[p]
		lost += s.seq[p] - s.acked[p] - s.bad[p]
	}
	return acked, lost, bad
}

func (s *stream) check() (int64, error) { return 0, nil }

func (s *stream) layer(m metricSet, u, t *phase) {
	m.set("actors.goroutines_peak", float64(u.health.goroutinesAdded-int64(s.producers)), "count")
	sp := t.spans
	m.set("actors.tell_ns_p50", sp.quantile("tell", 0.50), "ns")
	m.set("actors.tell_ns_p99", sp.quantile("tell", 0.99), "ns")
	m.set("actors.handler_us_p50", sp.quantile("handler", 0.50)/1e3, "us")
	m.set("actors.handler_us_p99", sp.quantile("handler", 0.99)/1e3, "us")
	m.set("remote.deliver_us_p50", sp.quantile("deliver", 0.50)/1e3, "us")
	m.set("remote.deliver_us_p99", sp.quantile("deliver", 0.99)/1e3, "us")
	st := stageQuantiles(s.tracers)
	m.set("actors.stage_mailbox_us_p99", st(trace.StageMailbox, 0.99)/1e3, "us")
	m.set("remote.stage_wire_us_p50", st(trace.StageWire, 0.50)/1e3, "us")
	m.set("remote.stage_stall_us_p99", st(trace.StageStall, 0.99)/1e3, "us")
}

func (s *stream) close() {
	for _, n := range []*remote.Node{s.near, s.far} {
		if n != nil {
			_ = n.Close() // idempotent teardown; nothing to report
		}
	}
	for _, sys := range s.systems {
		sys.Shutdown()
	}
}
