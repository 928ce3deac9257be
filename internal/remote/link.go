package remote

import (
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Link lifecycle. A fresh link is connecting: the peer is not yet known to
// be unreachable, so sends buffer into the outbox and flush when the dial
// lands (this is what lets an Ask's reply survive the reply-direction link
// being created on demand). A link goes down on its first dial failure or
// when an established connection dies, and sends are refused — deadlettered
// by the caller — until a redial succeeds.
const (
	linkConnecting int32 = iota
	linkUp
	linkDown
)

// link is one dial-out connection to a peer, owned by a single manager
// goroutine (run) that dials, pumps the outbox, heartbeats, and redials
// with jittered exponential backoff when the connection dies. Replies from
// the peer do not travel back on this connection — the peer dials its own
// link to us — so inbound traffic here is only heartbeat and hello acks.
//
// The outbox carries envelopes, not frames: encoding happens on the writer
// goroutine, which owns the connection's payload session and one grow-only
// scratch buffer, so the steady-state send path allocates nothing and the
// writer can coalesce every ready envelope into a single buffered write
// with one flush when the queue goes empty (Nagle without the delay).
type link struct {
	n      *Node
	peer   string
	outbox chan *WireEnvelope
	state  atomic.Int32 // linkConnecting until the first dial resolves
	// lastRecv is the unixnano of the last frame read on the current
	// connection; heartbeat timeout compares against it.
	lastRecv atomic.Int64
	// hbSentAt is the unixnano of the most recent heartbeat written, or 0
	// when no probe is outstanding; the reader swaps it out when the ack
	// arrives to observe one round-trip sample. A probe that dies with its
	// connection leaves a stale stamp, overwritten by the next probe.
	hbSentAt atomic.Int64
	// cs is the live connection's wire state, for observers only (the
	// per-link credits gauge); nil between connections.
	cs atomic.Pointer[connState]
	// reported is the last liveness state surfaced through
	// Config.OnLinkState: 0 never reported, 1 up, 2 down. Owned by the
	// manager goroutine, so transitions are reported exactly once even
	// across redial churn.
	reported int8
}

func newLink(n *Node, peer string) *link {
	return &link{n: n, peer: peer, outbox: make(chan *WireEnvelope, n.cfg.OutboxCap)}
}

// enqResult says what enqueue did with an envelope, so the caller can pick
// the matching deadletter kind: a down link is an unreachable peer
// (DLRemote), a full outbox on a live link is overload (DLOverloaded).
type enqResult int

const (
	enqOK enqResult = iota
	enqDown
	enqFull
)

// enqueue hands an envelope to the link without blocking. Anything but
// enqOK means the caller deadletters (and releases) the envelope. A
// connecting link accepts (buffers) the envelope: the peer is not yet known
// unreachable.
func (l *link) enqueue(w *WireEnvelope) enqResult {
	if l.state.Load() == linkDown {
		return enqDown
	}
	select {
	case l.outbox <- w:
		return enqOK
	default:
		return enqFull
	}
}

// credits reports the live connection's available credit, or -1 when the
// connection is down or uncredited (metered send does not apply).
func (l *link) credits() int64 {
	cs := l.cs.Load()
	if cs == nil || !cs.credited.Load() {
		return -1
	}
	return cs.available()
}

// depth is the current outbox occupancy (per-link gauge).
func (l *link) depth() int64 { return int64(len(l.outbox)) }

// notify surfaces a liveness transition through Config.OnLinkState, once per
// transition (manager goroutine only). The very first down report fires too:
// a seed peer that refuses the initial dial is exactly what a failure
// detector needs to hear about.
func (l *link) notify(up bool) {
	cb := l.n.cfg.OnLinkState
	if cb == nil {
		return
	}
	target := int8(2)
	if up {
		target = 1
	}
	if l.reported == target {
		return
	}
	l.reported = target
	cb(l.peer, up)
}

// run is the link's manager loop: dial, serve until the connection dies,
// back off, repeat. It exits when the node closes.
func (l *link) run() {
	n := l.n
	defer n.wg.Done()
	backoff := n.cfg.ReconnectMin
	established := false
	for {
		if n.isClosed() {
			return
		}
		conn, err := n.tr.Dial(l.peer)
		if err != nil {
			l.state.Store(linkDown)
			l.notify(false)
			if !l.sleep(n.jitterDur(backoff)) {
				return
			}
			backoff *= 2
			if backoff > n.cfg.ReconnectMax {
				backoff = n.cfg.ReconnectMax
			}
			continue
		}
		backoff = n.cfg.ReconnectMin
		if established {
			n.reconnects.Add(1)
		}
		established = true
		l.serve(conn)
		l.state.Store(linkDown)
		l.notify(false)
		_ = conn.Close()
	}
}

// connState is the per-connection wire state the writer owns: the outbound
// payload session, a scratch buffer, and the capabilities the peer's
// FrameHelloAck turned on (reader → writer). Until the ack arrives every
// capability is off: messages flow unmetered and spans are sealed at the
// wire boundary.
type connState struct {
	sess    *encSession
	scratch []byte // grow-only encode buffer, reused for every frame

	// Credit flow control (all connection-scoped; a reconnect starts from
	// zero on both ends, like the payload session). credited flips when the
	// peer's hello-ack sets capCredits; granted is the peer's
	// cumulative grant (reader → writer, monotonic); consumed counts
	// FrameMsg written since the connection opened (writer-owned, atomic
	// only so the credits gauge can read it). available = granted−consumed;
	// at ≤ 0 the writer parks the next message until the reader signals
	// creditCh (capacity 1 — a wakeup token, not a value).
	credited atomic.Bool
	granted  atomic.Int64
	consumed atomic.Int64
	creditCh chan struct{}

	// clusterOK flips when the peer's hello-ack sets capGossip: this
	// connection may carry FrameGossip.
	clusterOK atomic.Bool

	// tracedOK flips when the peer's hello-ack sets capTraced: this
	// connection's FrameMsg may carry migrating trace spans. Until then —
	// and forever against an untraced peer — the writer seals any span at
	// the wire boundary instead (the trace ends here, but what was measured
	// is kept).
	tracedOK atomic.Bool
}

// available is the remaining credit window; meaningful only when credited.
func (cs *connState) available() int64 { return cs.granted.Load() - cs.consumed.Load() }

// grant raises the cumulative grant to g (grants are monotonic; stale or
// reordered credit frames must never shrink the window) and wakes a writer
// that may be parked on zero credits.
func (cs *connState) grant(g int64) {
	for {
		cur := cs.granted.Load()
		if g <= cur {
			return
		}
		if cs.granted.CompareAndSwap(cur, g) {
			break
		}
	}
	select {
	case cs.creditCh <- struct{}{}:
	default:
	}
}

// serve owns one live connection: hello, then coalesced outbox batches and
// heartbeats, until a write fails, the peer falls silent past the heartbeat
// timeout, or the node closes.
func (l *link) serve(conn Conn) {
	n := l.n
	cs := &connState{sess: newEncSession(), creditCh: make(chan struct{}, 1)}
	cs.scratch = appendEnvelope(nil, &WireEnvelope{
		Kind: FrameHello, Flags: n.caps, FromAddr: n.addr, Lamport: n.clock.Tick(),
	})
	if err := conn.Send(cs.scratch); err != nil {
		return
	}
	n.bytesSent.Add(int64(len(cs.scratch)))
	l.lastRecv.Store(time.Now().UnixNano())
	l.state.Store(linkUp)
	l.notify(true)
	l.cs.Store(cs)
	defer l.cs.Store(nil)

	// Reader: the only inbound traffic on a dial-out connection is hello
	// acks, heartbeat acks, and credit grants — header-only frames,
	// consumed as liveness evidence, capability bits and clock merges. It
	// exits when the connection closes from either side.
	readErr := make(chan struct{})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(readErr)
		var cache internTable
		for {
			frame, err := conn.Recv()
			if err != nil {
				return
			}
			n.bytesRecv.Add(int64(len(frame)))
			var w WireEnvelope
			_, derr := decodeEnvelopeInto(&w, frame, &cache)
			putFrame(frame)
			if derr != nil {
				n.decodeErrs.Add(1)
				continue
			}
			n.clock.Observe(w.Lamport)
			now := time.Now().UnixNano()
			l.lastRecv.Store(now)
			switch w.Kind {
			case FrameHelloAck:
				both := w.Flags & n.caps
				if both&capCredits != 0 && w.Seq > 0 {
					// The ack's Seq is the initial window. Order matters
					// for the gauge only: grant before flipping credited so
					// a gauge read never sees credited with a zero window it
					// would misread as a stall. Arming credits off an empty
					// grant would park the writer forever, so a zero Seq
					// leaves metering off.
					cs.grant(int64(w.Seq))
					if cs.credited.CompareAndSwap(false, true) {
						n.creditedConns.Add(1)
					}
				}
				cs.clusterOK.Store(both&capGossip != 0)
				cs.tracedOK.Store(both&capTraced != 0)
			case FrameCredit:
				n.creditFramesRecv.Add(1)
				cs.grant(int64(w.Seq))
			case FrameHeartbeatAck:
				if t0 := l.hbSentAt.Swap(0); t0 != 0 {
					if h := n.rtt.Load(); h != nil {
						h.Observe(time.Duration(now - t0))
					}
				}
			}
		}
	}()

	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	// pending is the one envelope the writer dequeued but could not send for
	// lack of credits. It parks here — not back in the outbox, order matters
	// — until the reader's grant wakes the loop (the heartbeat tick doubles
	// as a retry backstop). Heartbeats keep flowing while parked, so a
	// credit stall never looks like peer silence. A connection that dies
	// with a message parked loses it, exactly like a frame written into a
	// dead socket: at-most-once.
	var pending *WireEnvelope
	defer func() {
		if pending != nil {
			if pending.span != nil {
				// The message dies with the connection; seal the span so
				// the measurement survives even though the hop did not.
				pending.span.FinishDead("wire", trace.SpanNow())
			}
			putEnvelope(pending)
		}
	}()
	for {
		var ok bool
		if pending == nil {
			select {
			case <-n.done:
				return
			case <-readErr:
				return
			case w := <-l.outbox:
				if pending, ok = l.writeBatch(conn, cs, w); !ok {
					return
				}
			case <-ticker.C:
				if !l.tick(conn, cs) {
					return
				}
			}
			continue
		}
		select {
		case <-n.done:
			return
		case <-readErr:
			return
		case <-cs.creditCh:
		case <-ticker.C:
			if !l.tick(conn, cs) {
				return
			}
		}
		if cs.available() > 0 || !cs.credited.Load() {
			if pending.span != nil {
				// The park is over: everything since the stall mark was
				// time spent waiting on the peer's credit window.
				pending.span.Mark(trace.StageStall, trace.SpanNow())
			}
			if pending, ok = l.writeBatch(conn, cs, pending); !ok {
				return
			}
		}
	}
}

// tick runs one heartbeat-interval maintenance pass: the peer-silence check
// plus a pre-encoded probe (a static frame, not an encode). False
// means the connection is dead or the peer timed out; the caller tears it
// down.
func (l *link) tick(conn Conn, cs *connState) bool {
	n := l.n
	silence := time.Since(time.Unix(0, l.lastRecv.Load()))
	if silence > n.cfg.HeartbeatTimeout {
		n.hbTimeouts.Add(1)
		return false
	}
	l.hbSentAt.Store(time.Now().UnixNano())
	if err := conn.Send(n.hbFrame); err != nil {
		return false
	}
	n.bytesSent.Add(int64(len(n.hbFrame)))
	// Membership gossip rides the same cadence: one digest per tick, on
	// connections where both ends set capGossip. The digest is
	// opaque bytes in the To field — a self-contained frame, so a drop costs
	// one round of dissemination, never the payload session. Encoded into
	// the writer-owned scratch buffer (tick runs on the manager goroutine,
	// same as writeBatch).
	if g := n.cfg.Gossip; g != nil && cs.clusterOK.Load() {
		if digest := g.GossipDigest(l.peer); len(digest) > 0 {
			cs.scratch = appendEnvelope(cs.scratch[:0], &WireEnvelope{
				Kind: FrameGossip, FromAddr: n.addr,
				To: string(digest), Lamport: n.clock.Tick(),
			})
			if err := conn.Send(cs.scratch); err != nil {
				return false
			}
			n.bytesSent.Add(int64(len(cs.scratch)))
			n.gossipSent.Add(1)
		}
	}
	return true
}

// writeBatch drains every envelope that is already queued — starting with
// first, which the caller just dequeued (or un-parked) — encodes each into
// one frame, and pushes them all through the connection with a single flush
// when the queue goes empty. On a BufferedConn (TCP) that coalesces a burst
// of sends into one syscall; on per-frame transports (mem) it degrades to
// ordinary sends, preserving the per-frame fault-injection site either way.
//
// On a credited connection each message costs one credit; when the window
// runs dry mid-batch the current envelope is returned as pending — what was
// already encoded still flushes — and the caller parks until the peer
// grants more. ok == false means the connection is dead or the payload
// session is poisoned; the caller tears the connection down and the manager
// loop redials.
func (l *link) writeBatch(conn Conn, cs *connState, first *WireEnvelope) (pending *WireEnvelope, ok bool) {
	n := l.n
	bw, buffered := conn.(BufferedConn)
	w := first
	frames := int64(0)
	for {
		if w.Kind == FrameMsg && w.span != nil && !cs.tracedOK.Load() {
			// The peer cannot adopt spans (it is untraced, or its ack has
			// not arrived yet): the trace ends at this node's wire
			// boundary. Charge the outbox wait to the wire stage and seal,
			// so partial traces still attribute what they saw.
			now := trace.SpanNow()
			w.span.Mark(trace.StageWire, now)
			w.span.Finish(now)
			w.span = nil
		}
		if w.Kind == FrameMsg && cs.credited.Load() && cs.available() <= 0 {
			if w.span != nil {
				// Entering a credit park: close out the wire stage so the
				// stall mark at un-park measures only the park.
				w.span.Mark(trace.StageWire, trace.SpanNow())
			}
			pending = w
			n.creditStalls.Add(1)
			break
		}
		var err error
		cs.scratch, err = cs.sess.appendFrame(cs.scratch[:0], w)
		isMsg := w.Kind == FrameMsg
		putEnvelope(w)
		if err != nil {
			// The payload session may hold a half-recorded type
			// descriptor; the stream is no longer trustworthy.
			n.encodeErrs.Add(1)
			return nil, false
		}
		if buffered {
			err = bw.SendBuffered(cs.scratch)
		} else {
			err = conn.Send(cs.scratch)
		}
		if err != nil {
			return nil, false
		}
		n.bytesSent.Add(int64(len(cs.scratch)))
		if isMsg {
			// Consume the credit only for frames actually written: both
			// ends count FrameMsg since the connection opened.
			cs.consumed.Add(1)
		}
		frames++
		select {
		case w = <-l.outbox:
			continue
		default:
		}
		break
	}
	if buffered {
		if err := bw.Flush(); err != nil {
			return nil, false
		}
	}
	if frames > 0 {
		n.batches.Add(1)
		n.batchedFrames.Add(frames)
	}
	return pending, true
}

// sleep pauses for d or until the node closes; false means closed.
func (l *link) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.n.done:
		return false
	case <-t.C:
		return true
	}
}
