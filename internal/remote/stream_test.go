package remote

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/actors"
)

// TestStreamSessionRoundTrip pushes a sequence of frames through one
// enc/dec session pair — the way a live connection does — and checks every
// payload survives, including after the first frame has paid the type
// descriptor cost.
func TestStreamSessionRoundTrip(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	var buf []byte
	for i := 0; i < 50; i++ {
		w := &WireEnvelope{
			Kind: FrameMsg, To: "sink", FromAddr: "node-a", FromName: "driver",
			Seq: uint64(i + 1), Lamport: uint64(i + 10), Payload: tPing{N: i},
		}
		var err error
		buf, err = enc.appendFrame(buf[:0], w)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		var got WireEnvelope
		if err := dec.decodeFrame(buf, &got); err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if got.Seq != w.Seq || got.To != w.To {
			t.Fatalf("frame %d: header mismatch: %+v", i, got)
		}
		if p, ok := got.Payload.(tPing); !ok || p.N != i {
			t.Fatalf("frame %d: payload = %#v, want tPing{%d}", i, got.Payload, i)
		}
	}
}

// TestStreamSessionControlFrames checks non-message frames carry no payload
// section and reject trailing garbage.
func TestStreamSessionControlFrames(t *testing.T) {
	dec := newDecSession()
	frame := appendEnvelope(nil, &WireEnvelope{Kind: FrameHeartbeat, FromAddr: "a"})
	var got WireEnvelope
	if err := dec.decodeFrame(frame, &got); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if got.Kind != FrameHeartbeat {
		t.Fatalf("kind = %v", got.Kind)
	}
	if err := dec.decodeFrame(append(frame, 0xAB), &got); err == nil {
		t.Fatal("trailing byte after a control frame decoded without error")
	}
}

// TestStreamSessionTruncatedPayload checks a FrameMsg whose payload section
// was cut short errors (the session is then torn down by the link layer)
// instead of blocking or panicking.
func TestStreamSessionTruncatedPayload(t *testing.T) {
	enc, dec := newEncSession(), newDecSession()
	w := &WireEnvelope{Kind: FrameMsg, To: "sink", Payload: tPing{N: 42}}
	frame, err := enc.appendFrame(nil, w)
	if err != nil {
		t.Fatal(err)
	}
	var got WireEnvelope
	if err := dec.decodeFrame(frame[:len(frame)-3], &got); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

// TestCodecInterop runs a live two-node exchange, in both directions (Tell
// request, Ask reply), between a credited node and one with credits
// disabled (CreditWindow: -1), each way round. Credits are on only when
// both ends set capCredits, so neither direction of either pairing is
// metered, and every pairing must deliver.
func TestCodecInterop(t *testing.T) {
	cases := []struct {
		name             string
		creditA, creditB int // 0 = default (on); <0 disables credits
	}{
		{"credited-uncredited", 0, -1},
		{"uncredited-credited", -1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, _ := twoMemNodes(t, func(c *Config) {
				if c.ListenAddr == "A" {
					c.CreditWindow = tc.creditA
				} else {
					c.CreditWindow = tc.creditB
				}
			})
			echo := b.System().MustSpawn("echo", func(ctx *actors.Context, msg any) {
				if p, ok := msg.(tPing); ok {
					ctx.Reply(tPong{N: p.N})
				}
			})
			b.Register("echo", echo)
			ref, err := a.RefFor("echo@B")
			if err != nil {
				t.Fatal(err)
			}
			// Asks exercise both wire directions; run enough of them that
			// both links' hello-acks have landed long before the end.
			for i := 0; i < 50; i++ {
				reply, err := actors.Ask(a.System(), ref, tPing{N: i}, 5*time.Second)
				if err != nil {
					t.Fatalf("ask %d: %v", i, err)
				}
				if p, ok := reply.(tPong); !ok || p.N != i {
					t.Fatalf("ask %d: reply = %#v", i, reply)
				}
			}
			if cc := a.Stats().CreditedConns + b.Stats().CreditedConns; cc != 0 {
				t.Fatalf("credits engaged on an uncredited pairing (%d conns)", cc)
			}
		})
	}
}

// TestRecordedFramesAreSelfContained: under MemNetwork.Record every FrameMsg
// is self-contained — each decodes with a fresh decode session, in any
// order — which is what lets the replayer reorder frames into their
// recorded order.
func TestRecordedFramesAreSelfContained(t *testing.T) {
	const msgs = 40
	net := NewMemNetwork()
	net.Record(1)
	tapA := &tapTransport{Transport: net.Endpoint("A")}
	a, err := NewNode(Config{ListenAddr: "A", Transport: tapA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(Config{ListenAddr: "B", Transport: net.Endpoint("B"), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Int64
	b.Register("sink", b.System().MustSpawn("sink", func(ctx *actors.Context, msg any) { got.Add(1) }))
	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		ref.Tell(tPing{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == msgs })

	var frames [][]byte
	for _, f := range tapA.sent() {
		if isMsgFrame(f) {
			frames = append(frames, f)
		}
	}
	if len(frames) != msgs {
		t.Fatalf("tapped %d message frames, want %d", len(frames), msgs)
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	seen := map[int]bool{}
	for i, f := range frames {
		if f[2]&msgFlagSelfContained == 0 {
			t.Fatalf("frame %d: self-contained flag not set under Record", i)
		}
		var w WireEnvelope
		if err := newDecSession().decodeFrame(f, &w); err != nil {
			t.Fatalf("frame %d: fresh session decode: %v", i, err)
		}
		p, ok := w.Payload.(tPing)
		if !ok || seen[p.N] {
			t.Fatalf("frame %d: payload %#v (duplicate or wrong type)", i, w.Payload)
		}
		seen[p.N] = true
	}
	// One session decodes them in the same shuffled order too: self-contained
	// frames never touch its stream state.
	dec := newDecSession()
	for i, f := range frames {
		var w WireEnvelope
		if err := dec.decodeFrame(f, &w); err != nil {
			t.Fatalf("frame %d: shared session decode: %v", i, err)
		}
	}
}

// tapTransport wraps a mem endpoint and keeps a copy of every frame its
// dial-out connections send. It forwards the content-stamping probe, so a
// node on it records and replays like one on the bare endpoint.
type tapTransport struct {
	Transport
	mu     sync.Mutex
	frames [][]byte
}

func (t *tapTransport) stampContent() bool { return t.Transport.(contentStamper).stampContent() }

func (t *tapTransport) Dial(addr string) (Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tapConn{Conn: c, t: t}, nil
}

func (t *tapTransport) sent() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]byte(nil), t.frames...)
}

type tapConn struct {
	Conn
	t *tapTransport
}

func (c tapConn) Send(frame []byte) error {
	c.t.mu.Lock()
	c.t.frames = append(c.t.frames, append([]byte(nil), frame...))
	c.t.mu.Unlock()
	return c.Conn.Send(frame)
}

// TestUntaggedFrameClosesConnection: a frame that does not start with the
// binary tag is not this wire format; the receiver counts a decode error
// and closes the connection instead of guessing.
func TestUntaggedFrameClosesConnection(t *testing.T) {
	net := NewMemNetwork()
	b, err := NewNode(Config{ListenAddr: "B", Transport: net.Endpoint("B")})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Endpoint("X").Dial("B")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte{0x0C, 0xFF, 0x81, 0x03}); err != nil {
		t.Fatal(err)
	}
	recvErr := make(chan error, 1)
	go func() {
		for {
			if _, err := conn.Recv(); err != nil {
				recvErr <- err
				return
			}
		}
	}()
	select {
	case <-recvErr:
	case <-time.After(5 * time.Second):
		t.Fatal("connection still open after an untagged frame")
	}
	if d := b.Stats().DecodeErrors; d != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", d)
	}
}

// TestStreamingSurvivesReconnect tears a streaming link down by closing the
// peer node, restarts the listener, and checks the link starts a fresh
// session pair that still delivers — the failure-handling story for a
// stateful wire format.
func TestStreamingSurvivesReconnect(t *testing.T) {
	net := NewMemNetwork()
	mkCfg := func(addr string) Config {
		return Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: 5 * time.Millisecond,
			HeartbeatTimeout:  30 * time.Millisecond,
			ReconnectMin:      time.Millisecond,
			ReconnectMax:      10 * time.Millisecond,
			Seed:              1,
		}
	}
	a, err := NewNode(mkCfg("A"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	got := make(chan int, 1024)
	serveSink := func(n *Node) {
		sink := n.System().MustSpawn("sink", func(ctx *actors.Context, msg any) {
			if p, ok := msg.(tPing); ok {
				select {
				case got <- p.N:
				default: // never block the actor on a full test channel
				}
			}
		})
		n.Register("sink", sink)
	}
	b, err := NewNode(mkCfg("B"))
	if err != nil {
		t.Fatal(err)
	}
	serveSink(b)

	ref, err := a.RefFor("sink@B")
	if err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			ref.Tell(tPing{N: n})
			select {
			case v := <-got:
				if v == n {
					return
				}
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("message %d never arrived", n)
			}
		}
	}
	send(1)

	// Kill B entirely (listener + connections), then bring up a fresh node
	// on the same address: the old streaming session is unusable and the
	// link must start a fresh session pair.
	b.Close()
	b2, err := NewNode(mkCfg("B"))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	serveSink(b2)
	send(2)
	// The new connection streams: later frames ride the descriptors its
	// first frame carried, and B2's fresh decode session never desyncs.
	for i := 3; i < 20; i++ {
		send(i)
	}
	if a.Stats().Reconnects == 0 {
		t.Fatal("delivery resumed without a reconnect")
	}
	if d := b2.Stats().DecodeErrors; d != 0 {
		t.Fatalf("fresh session pair desynchronized: %d decode errors", d)
	}
}
