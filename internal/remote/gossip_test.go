package remote

import (
	"sync"
	"testing"
	"time"
)

// chatterHook is a test GossipHook: every tick it offers one digest naming
// itself, and it remembers every digest it hears.
type chatterHook struct {
	self string

	mu    sync.Mutex
	heard map[string][]string // from addr → digests received
}

func newChatterHook(self string) *chatterHook {
	return &chatterHook{self: self, heard: map[string][]string{}}
}

func (h *chatterHook) GossipDigest(peer string) []byte { return []byte("digest-from-" + h.self) }

func (h *chatterHook) OnGossip(from string, digest []byte) {
	h.mu.Lock()
	h.heard[from] = append(h.heard[from], string(digest))
	h.mu.Unlock()
}

func (h *chatterHook) from(addr string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.heard[addr]...)
}

// TestGossipNegotiationAndExchange: two cluster nodes both set capGossip
// and exchange membership digests on the heartbeat cadence, in both
// directions (each node's dial-out link carries its own gossip).
func TestGossipNegotiationAndExchange(t *testing.T) {
	net := NewMemNetwork()
	hookA, hookB := newChatterHook("A"), newChatterHook("B")
	mkCfg := func(addr string, hook GossipHook) Config {
		return Config{
			ListenAddr: addr, Transport: net.Endpoint(addr),
			HeartbeatInterval: 2 * time.Millisecond,
			Gossip:            hook,
			Seed:              1,
		}
	}
	a, err := NewNode(mkCfg("A", hookA))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode(mkCfg("B", hookB))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect("A", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(hookB.from("A")) == 0 || len(hookA.from("B")) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gossip never flowed both ways: B heard %v from A, A heard %v from B",
				hookB.from("A"), hookA.from("B"))
		}
		time.Sleep(time.Millisecond)
	}
	if got := hookB.from("A")[0]; got != "digest-from-A" {
		t.Fatalf("B heard %q from A, want digest-from-A", got)
	}
	if got := hookA.from("B")[0]; got != "digest-from-B" {
		t.Fatalf("A heard %q from B, want digest-from-B", got)
	}
	if st := a.Stats(); st.GossipFramesSent == 0 || st.GossipFramesRecv == 0 {
		t.Fatalf("gossip counters did not move: %+v", st)
	}
}

// TestGossipInteropWithNonClusterPeer: a cluster node against a peer without
// a gossip hook — no gossip frames are ever sent, the hook's absence is
// harmless, and the connection still meters credits.
func TestGossipInteropWithNonClusterPeer(t *testing.T) {
	net := NewMemNetwork()
	hook := newChatterHook("A")
	a, err := NewNode(Config{
		ListenAddr: "A", Transport: net.Endpoint("A"),
		HeartbeatInterval: 2 * time.Millisecond,
		Gossip:            hook, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// B has no gossip hook: its ack sets capCredits but not capGossip.
	b, err := NewNode(Config{
		ListenAddr: "B", Transport: net.Endpoint("B"),
		HeartbeatInterval: 2 * time.Millisecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Connect("B", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Enough heartbeat ticks for gossip to have flowed if it were going to.
	time.Sleep(50 * time.Millisecond)
	if st := a.Stats(); st.GossipFramesSent != 0 {
		t.Fatalf("cluster node sent %d gossip frames to a non-cluster peer", st.GossipFramesSent)
	}
	// The connection still runs credits (both set capCredits, Seq>0).
	if st := a.Stats(); st.CreditedConns == 0 {
		t.Fatalf("cluster dialer against a non-cluster receiver did not meter credits: %+v", st)
	}
}

// TestOnLinkStateTransitions: the link-state callback reports up exactly
// once per liveness transition — up on hello, down when the peer dies, up
// again on reconnect — with no duplicate reports across redial churn.
func TestOnLinkStateTransitions(t *testing.T) {
	net := NewMemNetwork()
	var mu sync.Mutex
	var transitions []bool
	a, err := NewNode(Config{
		ListenAddr: "A", Transport: net.Endpoint("A"),
		HeartbeatInterval: 2 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Millisecond,
		ReconnectMin:      time.Millisecond,
		ReconnectMax:      2 * time.Millisecond,
		OnLinkState: func(peer string, up bool) {
			mu.Lock()
			transitions = append(transitions, up)
			mu.Unlock()
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	snap := func() []bool {
		mu.Lock()
		defer mu.Unlock()
		return append([]bool(nil), transitions...)
	}
	waitLen := func(n int) []bool {
		deadline := time.Now().Add(5 * time.Second)
		for {
			s := snap()
			if len(s) >= n {
				return s
			}
			if time.Now().After(deadline) {
				t.Fatalf("saw %v, want %d transitions", s, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Peer not listening yet: the first dial failure must report down once,
	// and keep not repeating it across redial churn.
	a.linkTo("B")
	got := waitLen(1)
	if got[0] != false {
		t.Fatalf("first transition = up, want down (dial against absent peer)")
	}
	time.Sleep(20 * time.Millisecond) // several failed redials
	if s := snap(); len(s) != 1 {
		t.Fatalf("redial churn repeated the down report: %v", s)
	}

	// Peer appears: exactly one up report.
	b, err := NewNode(Config{ListenAddr: "B", Transport: net.Endpoint("B"), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	got = waitLen(2)
	if got[1] != true {
		t.Fatalf("transitions = %v, want [down up]", got)
	}

	// Peer dies: one down report (from the dead connection or the failed
	// redial, whichever lands first — still exactly one).
	_ = b.Close()
	got = waitLen(3)
	if got[2] != false {
		t.Fatalf("transitions = %v, want [down up down]", got)
	}
	time.Sleep(20 * time.Millisecond)
	if s := snap(); len(s) != 3 {
		t.Fatalf("peer death reported more than once: %v", s)
	}
}
