// Package remote is the location-transparent distribution layer: it lets
// two (or N) actor Systems on different nodes exchange messages through
// ordinary actors.Ref handles. The paper's actor model is
// location-transparent by construction — Send(m).To(r) names a recipient,
// not a memory address — and this package cashes that property in: a
// proxy Ref obtained from Node.RefFor("bridge@addr") Tells and Asks exactly
// like a local one, with the envelope crossing a Transport instead of a
// mailbox pointer.
//
// A Node owns one listener plus dial-out links to its peers. Links carry
// length-prefixed binary frames (wirecodec.go) with gob payloads, heartbeat
// while idle, and reconnect with jittered exponential backoff when the peer
// goes away. Sends to an unreachable peer never block: they route to the
// owning System's deadletter contract (kind actors.DLRemote), which is also
// what makes the failure observable through metrics.
//
// Delivery is at-most-once per send: a frame accepted onto a link can still
// be lost if the connection dies before the peer reads it, and nothing is
// retransmitted at this layer. Protocols that need more layer
// actors.AskRetry (at-least-once with idempotent receivers) on top, exactly
// as the chaos problem variants already do — see docs/REMOTE.md.
//
// Every envelope is stamped with a Lamport timestamp from the node's
// trace.LamportClock (tick on send, Observe-merge on receive), so the wire
// logs of all nodes merge into one causally consistent diagram via
// trace.MergeLamport.
package remote

import (
	"fmt"

	"repro/internal/trace"
)

// FrameKind discriminates the frames a link carries.
type FrameKind uint8

const (
	// FrameHello opens a connection: it announces the dialer's listen
	// address and capability bits (Flags) and seeds the receiver's Lamport
	// clock.
	FrameHello FrameKind = iota + 1
	// FrameMsg carries one application envelope.
	FrameMsg
	// FrameHeartbeat probes the link; the peer answers with
	// FrameHeartbeatAck on the same connection.
	FrameHeartbeat
	// FrameHeartbeatAck answers a heartbeat; receiving any frame (ack
	// included) refreshes the dialer's liveness horizon.
	FrameHeartbeatAck
	// FrameHelloAck answers a FrameHello with the receiver's capability
	// bits (Flags) and, when it meters credits, its initial credit window
	// in Seq. A capability is on for the connection when both ends set it.
	FrameHelloAck
	// FrameCredit returns flow-control credits to the sender: Seq carries
	// the receiver's cumulative grant (total messages the sender may have
	// sent on this connection since it opened). Grants only ever travel
	// ack-direction (receiver → dialer), only on connections where both
	// ends set capCredits, and are cumulative so a lost credit frame is
	// healed by the next one.
	FrameCredit
	// FrameGossip piggybacks a cluster-membership digest on the heartbeat
	// cadence (internal/cluster): each heartbeat tick on a dial-out link
	// where both ends set capGossip may carry one. The digest travels as
	// opaque bytes in the To header field — not in Payload — so gossip
	// frames stay self-contained: a dropped digest never desynchronizes the
	// streaming payload session, and the next tick's digest supersedes it
	// (gossip state is convergent, not incremental).
	FrameGossip
)

func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameMsg:
		return "msg"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameHeartbeatAck:
		return "heartbeat-ack"
	case FrameHelloAck:
		return "hello-ack"
	case FrameCredit:
		return "credit"
	case FrameGossip:
		return "gossip"
	default:
		return fmt.Sprintf("FrameKind(%d)", int(k))
	}
}

// WireEnvelope is the unit encoded into one frame. Application payloads
// travel in Payload and must be registered with RegisterType.
type WireEnvelope struct {
	Kind FrameKind

	// Flags is the header's flag byte: the sender's capability bits
	// (capCredits, capGossip, capTraced) on FrameHello and FrameHelloAck,
	// codec-owned flag bits (msgFlagTraced, msgFlagSelfContained) on
	// FrameMsg, zero elsewhere.
	Flags uint8

	// Addressing: To names a recipient in the receiving node's registry;
	// ToID addresses a specific actor by raw ID (reply routing). Exactly
	// one is set on FrameMsg.
	To   string
	ToID uint64

	// Sender identity, for replies: FromAddr is the sending node's listen
	// address (the peer dials back to it), FromID/FromName identify the
	// sending actor there. FromID 0 means the send came from outside any
	// actor; replies then have nowhere to go and deadletter.
	FromAddr string
	FromID   uint64
	FromName string

	// Seq is the sending node's outbound frame sequence number, Lamport
	// the logical timestamp (tick-on-send). Together they let two nodes'
	// wire logs be matched pairwise and merged causally. Flow control
	// overloads the field on its own frames: FrameCredit (and a credited
	// FrameHelloAck) carry the receiver's cumulative credit grant in Seq,
	// so credits ride the existing header with no layout change.
	Seq     uint64
	Lamport uint64

	// Content is a payload fingerprint used by wire record/replay to pin
	// same-link frame *content* order, not just per-link fates: a replayed
	// run's frames may be batched and sequenced differently, but their
	// contents match the recorded ones. Stamped by forward() only while a
	// recording (or replay) with content IDs is active — zero otherwise, so
	// steady-state traffic pays one header byte and no hashing. A FrameMsg
	// with a fingerprint is encoded self-contained (msgFlagSelfContained),
	// which is what lets the replayer reorder it.
	Content uint64

	// Payload is the application message (FrameMsg only).
	Payload any

	// span is the in-flight distributed trace span migrating with this
	// envelope, if the message is sampled and both ends of the connection
	// set capTraced. The binary codec carries it explicitly (wirecodec.go)
	// behind the frame's msgFlagTraced bit.
	span *trace.Span

	// Inbound side of the migration: the binary decoder parses the span
	// ledger into wireSpan and sets traced; the dispatch path then rebuilds
	// a live Span via the receiving node's Tracer.Adopt. Split from span so
	// decoding stays allocation-free and tracer-free.
	wireSpan trace.WireSpan
	traced   bool
}

// payloadType describes a payload for wire logs without reflecting on nil.
func payloadType(v any) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T", v)
}
