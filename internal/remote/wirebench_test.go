package remote

import (
	"os"
	"testing"
	"time"

	"repro/internal/actors"
)

// TestStreamEncodeAllocs pins the steady-state allocation budget of the full
// encode path: binary header + streaming gob payload into a warm scratch
// buffer. The envelope header itself is zero-alloc (see
// TestEnvelopeEncodeAllocs); gob's value encoding is allowed at most one
// allocation per message.
func TestStreamEncodeAllocs(t *testing.T) {
	enc := newEncSession()
	w := &WireEnvelope{
		Kind: FrameMsg, To: "sink", FromAddr: "node-a", FromName: "driver",
		Seq: 1, Lamport: 2, Payload: tPing{N: 7},
	}
	var buf []byte
	// Warm up: first frame pays type descriptors and buffer growth.
	for i := 0; i < 10; i++ {
		var err error
		if buf, err = enc.appendFrame(buf[:0], w); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = enc.appendFrame(buf[:0], w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state stream encode allocates %.1f/op, want ≤1", allocs)
	}
}

// TestStreamDecodeAllocs pins the receive side: a warm decode session with
// its intern table should allocate only what gob needs to materialize the
// payload value.
func TestStreamDecodeAllocs(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	w := &WireEnvelope{Kind: FrameMsg, To: "sink", FromAddr: "node-a", Seq: 1, Payload: tPing{N: 7}}
	frame, err := enc.appendFrame(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	var out WireEnvelope
	// The first frame of a session carries gob type descriptors and may be
	// fed to the decoder only once; measure on a descriptor-free follow-up.
	if err := dec.decodeFrame(frame, &out); err != nil {
		t.Fatal(err)
	}
	frame, err = enc.appendFrame(frame[:0], w)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.decodeFrame(frame, &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := dec.decodeFrame(frame, &out); err != nil {
			t.Fatal(err)
		}
	})
	// Materializing `any`-boxed tPing costs gob a couple of small allocs;
	// the bound catches regressions back toward per-frame decoder state.
	if allocs > 4 {
		t.Fatalf("steady-state stream decode allocates %.1f/op, want ≤4", allocs)
	}
}

// floodThroughput measures one-way Tell throughput (msgs/sec) between two
// mem-transport nodes. record runs the flood under MemNetwork.Record, whose
// content-stamped frames take the self-contained payload path. cfg, when
// non-nil, tweaks both nodes' configs (e.g. CreditWindow).
func floodThroughput(t *testing.T, msgs int, record bool, cfg func(*Config)) float64 {
	t.Helper()
	net := NewMemNetwork()
	if record {
		net.Record(1)
	}
	mk := func(addr string) *Node {
		c := Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			OutboxCap: msgs + 64,
		}
		if cfg != nil {
			cfg(&c)
		}
		n, err := NewNode(c)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := mk("flood-a"), mk("flood-b")
	defer a.Close()
	defer b.Close()

	done := make(chan struct{})
	count := 0
	sink := b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
		if _, ok := msg.(tPing); ok {
			count++
			if count == msgs {
				close(done)
			}
		}
	})
	b.Register("sink", sink)
	ref, err := a.RefFor("sink@flood-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("flood-b", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for i := 0; i < msgs; i++ {
		ref.Tell(tPing{N: i}) // outbox sized for the whole flood; none deadletter
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("flood stalled: %d/%d delivered", count, msgs)
	}
	return float64(msgs) / time.Since(start).Seconds()
}

// TestWireBenchSmoke is the CI regression gate for the wire hot path: the
// streaming payload session must beat the self-contained (record-mode)
// payload path, one fresh gob stream per frame, on one-way Tell throughput
// by a clear margin. Gated behind WIRE_BENCH_SMOKE=1 because throughput
// ratios are meaningless under -race or on wildly loaded machines; the
// wire-smoke CI job runs it on a plain build.
func TestWireBenchSmoke(t *testing.T) {
	if os.Getenv("WIRE_BENCH_SMOKE") == "" {
		t.Skip("set WIRE_BENCH_SMOKE=1 to run the throughput regression gate")
	}
	const msgs = 30000
	selfContained := floodThroughput(t, msgs, true, nil)
	stream := floodThroughput(t, msgs, false, nil)
	ratio := stream / selfContained
	t.Logf("self-contained %.0f msgs/sec, stream %.0f msgs/sec, ratio %.2fx", selfContained, stream, ratio)
	if ratio < 1.3 {
		t.Fatalf("streaming session only %.2fx the self-contained path (want ≥1.3x)", ratio)
	}
}

// TestCreditedFloodFloor is the flow-control cost gate: on the same machine
// and run, the credited streaming path must keep ≥0.8× the throughput of
// the identical uncredited path (CreditWindow disabled). Measured as a
// same-run ratio rather than against a committed absolute so the gate is
// meaningful on machines unlike the baseline's. Gated like the smoke above.
func TestCreditedFloodFloor(t *testing.T) {
	if os.Getenv("WIRE_BENCH_SMOKE") == "" {
		t.Skip("set WIRE_BENCH_SMOKE=1 to run the credited-path throughput gate")
	}
	const msgs = 30000
	uncredited := floodThroughput(t, msgs, false, func(c *Config) {
		c.CreditWindow = -1
	})
	credited := floodThroughput(t, msgs, false, nil)
	ratio := credited / uncredited
	t.Logf("uncredited %.0f msgs/sec, credited %.0f msgs/sec, ratio %.2fx", uncredited, credited, ratio)
	if ratio < 0.8 {
		t.Fatalf("credited path only %.2fx the uncredited path (want ≥0.8x)", ratio)
	}
}
