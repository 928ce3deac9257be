package actors

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestObsQueueAndHandlerLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	obs := NewObs(reg, "actors")
	obs.Sample = 1 // time every message so counts are exact below
	sys := NewSystem(Config{Obs: obs})
	const n = 50
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		time.Sleep(100 * time.Microsecond)
		count++
		if count == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		sink.Tell(i)
	}
	<-done
	sys.Shutdown()

	if got := obs.QueueWait.Count(); got != n {
		t.Errorf("queue-wait observations = %d, want %d", got, n)
	}
	if got := obs.Handler.Count(); got != n {
		t.Errorf("handler observations = %d, want %d", got, n)
	}
	if p50 := obs.Handler.P50(); p50 < 50*time.Microsecond {
		t.Errorf("handler p50 = %v, want >= 50µs (behavior sleeps 100µs)", p50)
	}
	// The histograms surface through the registry NewObs registered in.
	if v, ok := reg.Get("actors.handler_ns.count"); ok && v != n {
		t.Errorf("registry handler count = %d", v)
	}
	snap := map[string]int64{}
	for _, s := range reg.Snapshot() {
		snap[s.Name] = s.Value
	}
	if snap["actors.mailbox.wait_ns.count"] != n {
		t.Errorf("registry missing mailbox wait series: %v", snap)
	}
}

func TestObsDisabledLeavesNoTrace(t *testing.T) {
	sys := NewSystem(Config{})
	done := make(chan struct{})
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) { close(done) })
	sink.Tell(1)
	<-done
	sys.Shutdown()
	if sys.MessagesEnqueued() != 0 || sys.MessagesDequeued() != 0 || sys.MessagesDrained() != 0 {
		t.Fatalf("ledger ran without Obs: %d/%d/%d",
			sys.MessagesEnqueued(), sys.MessagesDequeued(), sys.MessagesDrained())
	}
	if err := sys.CheckConservation(); err == nil {
		t.Fatal("CheckConservation should refuse without Config.Obs")
	}

	// Obs without Conserve: latencies are on, the ledger is not.
	sys2 := NewSystem(Config{Obs: NewObs(metrics.NewRegistry(), "actors")})
	done2 := make(chan struct{})
	sink2 := sys2.MustSpawn("sink", func(ctx *Context, msg any) { close(done2) })
	sink2.Tell(1)
	<-done2
	sys2.Shutdown()
	if sys2.MessagesEnqueued() != 0 || sys2.MessagesDequeued() != 0 {
		t.Fatalf("ledger ran without Conserve: %d/%d",
			sys2.MessagesEnqueued(), sys2.MessagesDequeued())
	}
	if err := sys2.CheckConservation(); err == nil {
		t.Fatal("CheckConservation should refuse without Obs.Conserve")
	}
}

// Conservation must hold under both dispatch modes with concurrent senders,
// mid-run actor stops (draining queued messages), and post-stop sends.
func TestConservationUnderChurn(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"dedicated", Config{}},
		{"pooled", Config{Dispatcher: Pooled, PoolSize: 4}},
		{"bounded", Config{MailboxCap: 8}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.Obs = NewObs(metrics.NewRegistry(), "actors")
			cfg.Obs.Conserve = true
			sys := NewSystem(cfg)
			var refs []*Ref
			for i := 0; i < 8; i++ {
				refs = append(refs, sys.MustSpawn(fmt.Sprintf("worker%d", i),
					func(ctx *Context, msg any) {}))
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						refs[(g*500+i)%len(refs)].Tell(i)
					}
				}(g)
			}
			// Stop half the actors while the flood is in flight so close-time
			// drains and dead-target deadletters actually occur.
			for _, r := range refs[:4] {
				sys.Stop(r)
			}
			wg.Wait()
			sys.Shutdown()
			if err := sys.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if sys.MessagesDequeued() == 0 {
				t.Fatal("nothing processed — test proved nothing")
			}
			// Every drained message was deadlettered too.
			if dr := sys.MessagesDrained(); dr > sys.DeadLetters() {
				t.Fatalf("drained=%d > deadletters=%d", dr, sys.DeadLetters())
			}
		})
	}
}

func TestRunQueueDepthGauge(t *testing.T) {
	reg := metrics.NewRegistry()
	sys := NewSystem(Config{Dispatcher: Pooled, PoolSize: 2})
	sys.RegisterMetrics(reg, "actors")
	if _, ok := reg.Get("actors.runqueue.depth"); !ok {
		t.Fatal("pooled system did not register runqueue depth gauge")
	}
	sys.Shutdown()

	reg2 := metrics.NewRegistry()
	sys2 := NewSystem(Config{})
	sys2.RegisterMetrics(reg2, "actors")
	if _, ok := reg2.Get("actors.runqueue.depth"); ok {
		t.Fatal("dedicated system registered a runqueue gauge")
	}
	sys2.Shutdown()
}

// tellThroughputOnce runs one timed burst of parallel Tells and returns
// ns/op, shared by the overhead smoke test below.
func tellThroughputOnce(cfg Config, senders, msgs int) float64 {
	sys := NewSystem(cfg)
	defer sys.Shutdown()
	done := make(chan struct{})
	count := 0
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		count++
		if count == senders*msgs {
			close(done)
		}
	})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < msgs; j++ {
				sink.Tell(j)
			}
		}()
	}
	wg.Wait()
	<-done
	return float64(time.Since(start).Nanoseconds()) / float64(senders*msgs)
}

// TestInstrumentationOverheadSmoke is the CI bound from the issue: the
// metrics-enabled Tell path must stay within 15% of uninstrumented —
// measured here with a generous 50% CI bound because shared runners are
// noisy (the obs rows of the committed BENCH.json hold quiet-machine numbers).
// Opt-in via OBS_OVERHEAD_SMOKE=1; see .github/workflows/ci.yml.
func TestInstrumentationOverheadSmoke(t *testing.T) {
	if os.Getenv("OBS_OVERHEAD_SMOKE") == "" {
		t.Skip("set OBS_OVERHEAD_SMOKE=1 to run the overhead bound")
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
	instr := best(Config{Obs: NewObs(metrics.NewRegistry(), "actors")})
	conserve := func() float64 {
		o := NewObs(metrics.NewRegistry(), "actors")
		o.Conserve = true
		return best(Config{Obs: o})
	}()
	t.Logf("uninstrumented %.1f ns/op, instrumented %.1f ns/op (%.1f%% overhead), +conserve %.1f ns/op (%.1f%%)",
		plain, instr, 100*(instr-plain)/plain, conserve, 100*(conserve-plain)/plain)
	if instr > plain*1.5 {
		t.Fatalf("instrumented Tell %.1f ns/op exceeds 1.5x uninstrumented %.1f ns/op", instr, plain)
	}
}

// BenchmarkTellParallelSendersObs is the instrumented twin of
// BenchmarkTellParallelSenders for apples-to-apples overhead comparison
// (cmd/benchtables measures both in its tell flood table).
func BenchmarkTellParallelSendersObs(b *testing.B) {
	sys := NewSystem(Config{Obs: NewObs(metrics.NewRegistry(), "actors")})
	defer sys.Shutdown()
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	sink := sys.MustSpawn("sink", func(ctx *Context, msg any) {
		mu.Lock()
		count++
		if count == b.N {
			close(done)
		}
		mu.Unlock()
	})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sink.Tell(0)
		}
	})
	<-done
}
