package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/actors"
	"repro/internal/remote"
)

// overloadRun drives one offered-load level against a credit-limited node
// pair: a sink that needs roughly `service` per message, a paced flood
// offering `mult`× the sink's *measured* capacity, and a concurrent asker
// probing end-to-end latency. The capacity is calibrated inline (an
// unpaced burst, timed at the sink) because a sleeping actor's effective
// service time is kernel- and load-dependent — pacing against the nominal
// figure would turn "1×" into a silent overload on a machine with coarse
// sleep granularity. Returns the achieved delivery rate, the ask p99, and
// how many messages the overload machinery shed into the DLOverloaded
// ledger during the paced phase.
func overloadRun(mult int, runFor time.Duration, service time.Duration) (rate float64, p99 time.Duration, shed int64, err error) {
	var seen atomic.Int64
	base := remote.Config{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		CreditWindow:      256,
		OutboxCap:         128,
		Seed:              1,
	}
	na, nb, ref, stop, err := nodePair(base, false, 0, func(ctx *actors.Context, msg any) {
		if p, ok := msg.(benchPing); ok {
			seen.Add(1)
			time.Sleep(service)
			if p.N == -1 {
				ctx.Reply(benchPong{N: -1})
			}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer stop()

	var offered atomic.Int64
	curShed := func() int64 {
		return na.System().DeadLettersOf(actors.DLOverloaded) +
			nb.System().DeadLettersOf(actors.DLOverloaded)
	}
	settle := func(phase string) error {
		deadline := time.Now().Add(30 * time.Second)
		for seen.Load()+curShed() < offered.Load() {
			if time.Now().After(deadline) {
				return fmt.Errorf("overload %dx %s never drained: offered=%d seen=%d shed=%d",
					mult, phase, offered.Load(), seen.Load(), curShed())
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// Calibration: an unpaced burst, timed at the sink.
	const calib = 500
	calStart := time.Now()
	for i := 0; i < calib; i++ {
		ref.Tell(benchPing{N: i})
		offered.Add(1)
	}
	if err := settle("calibration"); err != nil {
		return 0, 0, 0, err
	}
	capacity := float64(seen.Load()) / time.Since(calStart).Seconds()
	pace := time.Duration(float64(time.Second) / (capacity * float64(mult)))

	askStop := make(chan struct{})
	askDone := make(chan struct{})
	var durations []time.Duration
	go func() {
		defer close(askDone)
		for {
			select {
			case <-askStop:
				return
			// Sparse probes: frequent enough for a p99, rare enough not to
			// be a meaningful fraction of the offered load.
			case <-time.After(20 * time.Millisecond):
			}
			s := time.Now()
			offered.Add(1)
			_, _ = actors.Ask(na.System(), ref, benchPing{N: -1}, 250*time.Millisecond)
			durations = append(durations, time.Since(s))
		}
	}()

	seen0, shed0 := seen.Load(), curShed()
	count := int(capacity * runFor.Seconds() * float64(mult))
	if count < 100 {
		count = 100
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		for time.Since(start) < time.Duration(i)*pace {
			time.Sleep(10 * time.Microsecond)
		}
		ref.Tell(benchPing{N: i})
		offered.Add(1)
	}
	close(askStop)
	<-askDone
	// Drain: every offered message must land as delivered or shed before
	// the rate is meaningful.
	if err := settle("flood"); err != nil {
		return 0, 0, 0, err
	}
	rate = float64(seen.Load()-seen0) / time.Since(start).Seconds()
	shed = curShed() - shed0
	if len(durations) > 0 {
		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		p99 = durations[len(durations)*99/100]
	}
	return rate, p99, shed, nil
}

// overloadTable measures overload protection: achieved throughput, ask
// p99, and shed volume at 1x, 4x, and 16x the sink's service rate. Past
// saturation the achieved rate should stay pinned near capacity and the
// excess be shed at the sender's outbox, while ask latency stays bounded
// instead of growing with the queue.
func overloadTable(reps, scale int) []row {
	const service = 50 * time.Microsecond // nominal; capacity is calibrated per run
	runFor := time.Duration(2000/scale) * time.Millisecond
	var cases []benchCase
	for _, mult := range []int{1, 4, 16} {
		cases = append(cases, benchCase{fmt.Sprintf("%dx service rate", mult), func() ([]row, error) {
			rate, p99, shed, err := overloadRun(mult, runFor, service)
			return []row{
				{Unit: "msgs/s", Value: rate},
				{Unit: "ask p99 ms", Value: float64(p99.Microseconds()) / 1e3},
				{Unit: "shed msgs", Value: float64(shed)},
			}, err
		}})
	}
	return measure("overload", reps, cases)
}
