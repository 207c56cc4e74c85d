package platform

import (
	"agentloc/internal/ids"
	"agentloc/internal/wire"
)

// Binary codecs for the platform's request wrapper and response carrier,
// the envelope-adjacent layer every RPC rides through — the wrappers' only
// wire form. The inner message travels as raw bytes in its own codec (binary
// appended in place from body, or the gob Payload the caller encoded); on
// decode it aliases the received buffer rather than being copied.

// maxPlatIDLen bounds agent-id and kind lengths on the wire.
const maxPlatIDLen = 1 << 16

// names canonicalises what every request repeats: the message-kind strings, a
// small fixed vocabulary, and the ids of the agents requests are addressed to
// and come from — the mechanism's own agents in nearly every case, so the
// interner's bound is never met and the steady state decodes a wrapper
// without allocating.
var names = wire.NewInterner()

// appendNested appends a message as the length-prefixed binary payload its
// wrapper carries, through pooled scratch space.
func appendNested(dst []byte, m wire.Marshaler) []byte {
	inner := wire.GetBuf()
	*inner = m.AppendWire(wire.AppendMsgHeader(*inner, wire.MsgVersion))
	dst = wire.AppendBytes(dst, *inner)
	wire.PutBuf(inner)
	return dst
}

func (r *agentRequest) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.Agent))
	dst = wire.AppendString(dst, string(r.From))
	dst = wire.AppendString(dst, r.Kind)
	if r.body != nil {
		return appendNested(dst, r.body)
	}
	return wire.AppendBytes(dst, r.Payload)
}

func (r *agentRequest) DecodeWire(d *wire.Dec) error {
	agent, err := d.StringIn(maxPlatIDLen, names)
	if err != nil {
		return err
	}
	from, err := d.StringIn(maxPlatIDLen, names)
	if err != nil {
		return err
	}
	kind, err := d.StringIn(maxPlatIDLen, names)
	if err != nil {
		return err
	}
	payload, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return err
	}
	r.Agent, r.From, r.Kind = ids.AgentID(agent), ids.AgentID(from), kind
	if len(payload) == 0 {
		payload = nil
	}
	r.Payload = payload
	return nil
}

func (r *rawResponse) AppendWire(dst []byte) []byte {
	if r.body != nil {
		return appendNested(dst, r.body)
	}
	return wire.AppendBytes(dst, r.Payload)
}

func (r *rawResponse) DecodeWire(d *wire.Dec) error {
	payload, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		payload = nil
	}
	r.Payload = payload
	return nil
}
