package remote

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// The wire format: one binary frame format that every connection speaks
// from its first frame. A frame is self-describing at the byte level:
//
//	[0]     frameTagBinary (0xB2)
//	[1]     Kind
//	[2]     Flags
//	uvarint ToID, FromID, Seq, Lamport, Content
//	string  To, FromAddr, FromName   (uvarint length + bytes each)
//	...     trace.WireSpan           (FrameMsg with msgFlagTraced only)
//	...     payload bytes            (FrameMsg only; gob, see stream.go)
//
// A frame that does not start with the tag is not this format; receivers
// count it as a decode error and close the connection.
const frameTagBinary = 0xB2

// Capability bits, carried in the Flags byte of FrameHello (the dialer's
// capabilities) and FrameHelloAck (the receiver's). A connection uses a
// capability only when both ends set its bit, so a traced node talks to an
// untraced one, or a cluster node to a plain one, with the capability off
// and everything else unchanged. Each bit follows the config that already
// controls the feature.
const (
	// capCredits: the node meters its inbound connections with credit
	// flow control (Config.CreditWindow > 0). A hello-ack with this bit
	// carries the receiver's initial window in Seq.
	capCredits = 1 << iota
	// capGossip: the node speaks cluster membership gossip
	// (Config.Gossip != nil), piggybacked as FrameGossip on heartbeats.
	capGossip
	// capTraced: the node can migrate trace spans inside message frames
	// (its System has a Tracer). Without the bit on both ends the sender
	// seals spans at the wire boundary instead.
	capTraced
)

// Message flag bits, carried in the Flags byte of FrameMsg and owned by the
// codec: senders leave the byte zero and the encoder sets them.
const (
	// msgFlagTraced marks a FrameMsg whose header is followed by a
	// trace.WireSpan (the migrating span ledger). An untraced message on a
	// traced connection pays zero extra bytes.
	msgFlagTraced = 1 << iota
	// msgFlagSelfContained marks a FrameMsg whose payload is a gob stream
	// of its own rather than the next chunk of the connection's session
	// stream, so it decodes in any order (record/replay, see stream.go).
	msgFlagSelfContained
)

var (
	errBadTag    = errors.New("remote: frame does not start with the binary tag")
	errTruncated = errors.New("remote: truncated envelope header")
)

// appendEnvelope appends the binary header encoding of w to buf and returns
// the extended slice. It never fails: every field is length-delimited and
// bounded only by the transport's maxFrame check at send time.
func appendEnvelope(buf []byte, w *WireEnvelope) []byte {
	flags := w.Flags
	traced := w.Kind == FrameMsg && w.span != nil
	if traced {
		flags |= msgFlagTraced
	}
	buf = append(buf, frameTagBinary, byte(w.Kind), flags)
	buf = binary.AppendUvarint(buf, w.ToID)
	buf = binary.AppendUvarint(buf, w.FromID)
	buf = binary.AppendUvarint(buf, w.Seq)
	buf = binary.AppendUvarint(buf, w.Lamport)
	buf = binary.AppendUvarint(buf, w.Content)
	buf = appendWireString(buf, w.To)
	buf = appendWireString(buf, w.FromAddr)
	buf = appendWireString(buf, w.FromName)
	if traced {
		buf = appendWireSpan(buf, w.span.Wire())
	}
	return buf
}

// appendWireSpan appends the migrating span ledger after the fixed header:
// identity, then the running timestamps, then every stage bucket. All
// uvarints — a fresh root span is ~30 bytes, and only sampled messages on
// traced connections pay it.
func appendWireSpan(buf []byte, ws trace.WireSpan) []byte {
	buf = binary.AppendUvarint(buf, ws.Trace)
	buf = binary.AppendUvarint(buf, ws.ID)
	buf = binary.AppendUvarint(buf, ws.Parent)
	buf = binary.AppendUvarint(buf, uint64(ws.Start))
	buf = binary.AppendUvarint(buf, uint64(ws.Last))
	for _, d := range ws.Stages {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	return buf
}

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// internTable caches the previous value of each header string so that
// steady-state decoding allocates nothing: a link decodes thousands of
// frames that all carry the same To / FromAddr / FromName, and comparing
// bytes against the cached string is allocation-free in Go.
type internTable struct {
	to, fromAddr, fromName string
}

func intern(slot *string, b []byte) string {
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// decodeEnvelopeInto parses the binary header at the start of frame into w
// (overwriting every header field; Payload is left untouched) and returns
// the number of bytes consumed, so the caller can hand frame[n:] to the
// payload session. cache may be nil. Malformed, truncated, or oversized
// input returns an error — never a panic — which is what FuzzCodec pins.
func decodeEnvelopeInto(w *WireEnvelope, frame []byte, cache *internTable) (int, error) {
	if len(frame) < 3 {
		return 0, errTruncated
	}
	if frame[0] != frameTagBinary {
		return 0, errBadTag
	}
	kind := FrameKind(frame[1])
	if kind < FrameHello || kind > FrameGossip {
		return 0, fmt.Errorf("remote: invalid frame kind %d", frame[1])
	}
	w.Kind = kind
	w.Flags = frame[2]
	rest := frame[3:]

	var err error
	if w.ToID, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.FromID, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.Seq, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.Lamport, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	if w.Content, rest, err = readUvarint(rest); err != nil {
		return 0, err
	}
	var to, fromAddr, fromName []byte
	if to, rest, err = readWireBytes(rest); err != nil {
		return 0, err
	}
	if fromAddr, rest, err = readWireBytes(rest); err != nil {
		return 0, err
	}
	if fromName, rest, err = readWireBytes(rest); err != nil {
		return 0, err
	}
	if cache != nil {
		w.To = intern(&cache.to, to)
		w.FromAddr = intern(&cache.fromAddr, fromAddr)
		w.FromName = intern(&cache.fromName, fromName)
	} else {
		w.To, w.FromAddr, w.FromName = string(to), string(fromAddr), string(fromName)
	}
	w.traced, w.wireSpan = false, trace.WireSpan{}
	if w.Kind == FrameMsg && w.Flags&msgFlagTraced != 0 {
		// Self-describing: no connection state needed here. Strip the flag:
		// it stands for the span, which decodes into wireSpan, and the
		// encoder sets it again from the span.
		w.Flags &^= msgFlagTraced
		if rest, err = readWireSpan(&w.wireSpan, rest); err != nil {
			return 0, err
		}
		w.traced = true
	}
	return len(frame) - len(rest), nil
}

// readWireSpan parses the span ledger appendWireSpan wrote. Same
// error-never-panic contract as the rest of the header.
func readWireSpan(ws *trace.WireSpan, b []byte) ([]byte, error) {
	var v uint64
	var err error
	if ws.Trace, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if ws.ID, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if ws.Parent, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	ws.Start = int64(v)
	if v, b, err = readUvarint(b); err != nil {
		return nil, err
	}
	ws.Last = int64(v)
	for i := range ws.Stages {
		if v, b, err = readUvarint(b); err != nil {
			return nil, err
		}
		ws.Stages[i] = int64(v)
	}
	return b, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}

func readWireBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("remote: string length %d exceeds remaining %d bytes", n, len(rest))
	}
	return rest[:n], rest[n:], nil
}
