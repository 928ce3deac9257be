package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// Payloads cross the wire as gob, behind the binary envelope header
// (wirecodec.go). Each link direction runs one long-lived encoder/decoder
// session, so a payload type's descriptors cross the wire once per
// connection instead of once per frame.
//
// The price of streaming is that a session's frames are no longer
// independent: a frame lost in flight can take a later frame's type
// descriptors with it. The link layer therefore tears the connection down
// on any session decode error and starts a fresh session pair on reconnect
// — which is the honest semantics anyway, since an ordered transport that
// lost a frame has lost the ordering promise the session was built on.
//
// Record/replay needs the opposite: the replayer reorders message frames
// into their recorded order. A FrameMsg that carries a content fingerprint
// (WireEnvelope.Content, stamped only while the transport records or
// replays) is therefore encoded self-contained — a fresh gob stream of its
// own, marked by msgFlagSelfContained — and decodes in any order without
// touching the session's stream state.

// RegisterType registers a payload's concrete type with the wire's gob
// payload encoding (gob encodes interface values by concrete type name).
// Call it from an init function in the package that defines the protocol
// messages; registration is global and idempotent for a given type/name.
// An unregistered payload fails at encode on the sender, never partway
// across the wire.
func RegisterType(v any) { gob.Register(v) }

// encSession is one connection's outbound payload stream. It is owned by
// the link writer goroutine and is not safe for concurrent use.
type encSession struct {
	buf  bytes.Buffer // gob output for the frame being encoded
	enc  *gob.Encoder
	slot any // reused interface cell so Encode(&slot) never heap-escapes
}

func newEncSession() *encSession {
	s := &encSession{}
	s.enc = gob.NewEncoder(&s.buf)
	return s
}

// appendFrame appends the complete frame for w to buf: binary header, then
// (for FrameMsg) the payload bytes — from the session's stream, or from a
// fresh one when w carries a content fingerprint. An error poisons the
// session — gob may have recorded a descriptor it never finished writing —
// so the caller must tear the connection down.
func (s *encSession) appendFrame(buf []byte, w *WireEnvelope) ([]byte, error) {
	start := len(buf)
	buf = appendEnvelope(buf, w)
	if w.Kind != FrameMsg {
		return buf, nil
	}
	enc := s.enc
	if w.Content != 0 {
		buf[start+2] |= msgFlagSelfContained
		enc = gob.NewEncoder(&s.buf)
	}
	s.buf.Reset()
	s.slot = w.Payload
	err := enc.Encode(&s.slot)
	s.slot = nil
	if err != nil {
		return nil, err
	}
	return append(buf, s.buf.Bytes()...), nil
}

// decSession is one connection's inbound payload stream, owned by the
// connection's reader goroutine.
type decSession struct {
	chunk  chunkReader
	dec    *gob.Decoder
	intern internTable
}

func newDecSession() *decSession {
	s := &decSession{}
	s.dec = gob.NewDecoder(&s.chunk)
	return s
}

// decodeFrame parses one frame into w. The payload section must contain
// exactly the gob messages for one value; leftover or missing bytes mean
// the stream is desynchronized (typically a frame was lost in flight) and
// the caller must tear the connection down.
func (s *decSession) decodeFrame(frame []byte, w *WireEnvelope) error {
	n, err := decodeEnvelopeInto(w, frame, &s.intern)
	if err != nil {
		return err
	}
	if w.Kind != FrameMsg {
		if n != len(frame) {
			return fmt.Errorf("remote: %d trailing bytes after %s frame", len(frame)-n, w.Kind)
		}
		return nil
	}
	s.chunk.rest = frame[n:]
	dec := s.dec
	if w.Flags&msgFlagSelfContained != 0 {
		dec = gob.NewDecoder(&s.chunk)
	}
	var payload any
	if err := dec.Decode(&payload); err != nil {
		s.chunk.rest = nil
		return fmt.Errorf("remote: payload decode: %w", err)
	}
	if len(s.chunk.rest) != 0 {
		return fmt.Errorf("remote: %d trailing payload bytes", len(s.chunk.rest))
	}
	w.Payload = payload
	return nil
}

// chunkReader feeds one frame's payload section to a gob decoder. gob
// copies what it reads into its own buffers, so the frame can be recycled
// as soon as Decode returns.
type chunkReader struct {
	rest []byte
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}
