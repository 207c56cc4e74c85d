package core

import (
	"fmt"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/wire"
)

// Hand-rolled binary codecs for the hot-path DTOs: locate, update (single
// and batched), residence-move, whois/refresh, and their responses — and for
// the sibling checkpoint, the one control message that carries a table's worth
// of entries again and again. The rest of the cold control plane — hash state
// pushes, handoffs, split/merge — stays on gob, where flexibility beats cycles. Each codec implements wire.Marshaler
// and wire.Unmarshaler, which is what makes transport.Encode pick it, for
// every peer; transport.Decode dispatches on the payload header.
//
// Node and residence ids recur endlessly across messages (a cluster has few
// nodes but millions of location updates), so decodes run them through a
// process-wide interner: the steady state resolves them with zero
// allocations.

// Wire field limits. Identifier lengths beyond these mark corruption, and a
// batch's declared entry count is sanity-bounded before any allocation.
const (
	maxWireIDLen   = 1 << 16
	maxWireBatch   = 1 << 20
	wireBatchGuard = "core: batch length %d exceeds limit"
)

// wireIntern canonicalises node and residence ids seen on the wire.
var wireIntern = wire.NewInterner()

func appendStatus(dst []byte, s Status) []byte {
	return wire.AppendUvarint(dst, uint64(s))
}

func decodeStatus(d *wire.Dec) (Status, error) {
	v, err := d.Uvarint()
	return Status(v), err
}

// batchLen validates a declared batch length against both the hard bound
// and the bytes actually remaining, so a corrupt count cannot force a huge
// allocation.
func batchLen(d *wire.Dec) (int, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxWireBatch || v > uint64(d.Remaining()) {
		return 0, fmt.Errorf("%w: "+wireBatchGuard, wire.ErrCorrupt, v)
	}
	return int(v), nil
}

// --- locate ---------------------------------------------------------------

func (r LocateReq) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, string(r.Agent))
}

func (r *LocateReq) DecodeWire(d *wire.Dec) error {
	s, err := d.String(maxWireIDLen)
	r.Agent = ids.AgentID(s)
	return err
}

// locateReqAgent reads the agent id of a binary-coded LocateReq as a view
// into the payload, valid only as long as the payload is. LocateReq is a
// wire.Marshaler, so no sender produces another form: any other payload (gob,
// empty) is refused as corrupt.
func locateReqAgent(payload []byte) (agent []byte, err error) {
	ver, body, ok := wire.MsgHeader(payload)
	if !ok {
		return nil, fmt.Errorf("%w: locate request is not a binary message", wire.ErrCorrupt)
	}
	if ver > wire.MsgVersion {
		return nil, fmt.Errorf("%w: message version %d, this build reads ≤ %d", wire.ErrUnsupportedVersion, ver, wire.MsgVersion)
	}
	d := wire.NewDec(body)
	if agent, err = d.Bytes(maxWireIDLen); err == nil {
		err = d.Done()
	}
	return agent, err
}

func (r LocateResp) AppendWire(dst []byte) []byte {
	dst = appendStatus(dst, r.Status)
	dst = wire.AppendString(dst, string(r.Node))
	return wire.AppendUvarint(dst, r.HashVersion)
}

func (r *LocateResp) DecodeWire(d *wire.Dec) error {
	var err error
	if r.Status, err = decodeStatus(d); err != nil {
		return err
	}
	node, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Node = platform.NodeID(node)
	r.HashVersion, err = d.Uvarint()
	return err
}

func (r LocateBatchReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(r.Agents)))
	for _, a := range r.Agents {
		dst = wire.AppendString(dst, string(a))
	}
	return dst
}

func (r *LocateBatchReq) DecodeWire(d *wire.Dec) error {
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Agents = make([]ids.AgentID, n)
	for i := range r.Agents {
		s, err := d.String(maxWireIDLen)
		if err != nil {
			return err
		}
		r.Agents[i] = ids.AgentID(s)
	}
	return nil
}

func (r LocateBatchResp) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(r.Results)))
	for i := range r.Results {
		dst = r.Results[i].AppendWire(dst)
	}
	return dst
}

func (r *LocateBatchResp) DecodeWire(d *wire.Dec) error {
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Results = make([]LocateResp, n)
	for i := range r.Results {
		if err := r.Results[i].DecodeWire(d); err != nil {
			return err
		}
	}
	return nil
}

// --- register / update / deregister ---------------------------------------

func (r RegisterReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.Agent))
	return wire.AppendString(dst, string(r.Node))
}

func (r *RegisterReq) DecodeWire(d *wire.Dec) error {
	agent, err := d.String(maxWireIDLen)
	if err != nil {
		return err
	}
	node, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Agent, r.Node = ids.AgentID(agent), platform.NodeID(node)
	return nil
}

func (r UpdateReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.Agent))
	dst = wire.AppendString(dst, string(r.Node))
	dst = wire.AppendString(dst, string(r.Residence))
	// The capability count is always present (zero for the common plain
	// move): UpdateReqs concatenate inside UpdateBatchReq, so a trailing-
	// optional encoding would be ambiguous — the next update's agent id
	// would be misread as a capability count.
	dst = wire.AppendUvarint(dst, uint64(len(r.Capabilities)))
	for _, c := range r.Capabilities {
		dst = wire.AppendString(dst, c)
	}
	return dst
}

func (r *UpdateReq) DecodeWire(d *wire.Dec) error {
	agent, err := d.String(maxWireIDLen)
	if err != nil {
		return err
	}
	node, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	res, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Agent, r.Node, r.Residence = ids.AgentID(agent), platform.NodeID(node), ids.ResidenceID(res)
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Capabilities = nil
	if n > 0 {
		r.Capabilities = make([]string, n)
		for i := range r.Capabilities {
			// Capability tags recur across agents, so intern them like
			// node ids.
			if r.Capabilities[i], err = d.StringIn(maxWireIDLen, wireIntern); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r DeregisterReq) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, string(r.Agent))
}

func (r *DeregisterReq) DecodeWire(d *wire.Dec) error {
	s, err := d.String(maxWireIDLen)
	r.Agent = ids.AgentID(s)
	return err
}

func (a Ack) AppendWire(dst []byte) []byte {
	dst = appendStatus(dst, a.Status)
	return wire.AppendUvarint(dst, a.HashVersion)
}

func (a *Ack) DecodeWire(d *wire.Dec) error {
	var err error
	if a.Status, err = decodeStatus(d); err != nil {
		return err
	}
	a.HashVersion, err = d.Uvarint()
	return err
}

// --- batched updates ------------------------------------------------------

func (r UpdateBatchReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(r.Updates)))
	for i := range r.Updates {
		dst = r.Updates[i].AppendWire(dst)
	}
	return dst
}

func (r *UpdateBatchReq) DecodeWire(d *wire.Dec) error {
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Updates = make([]UpdateReq, n)
	for i := range r.Updates {
		if err := r.Updates[i].DecodeWire(d); err != nil {
			return err
		}
	}
	return nil
}

func (r UpdateBatchResp) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(r.Acks)))
	for i := range r.Acks {
		dst = r.Acks[i].AppendWire(dst)
	}
	return dst
}

func (r *UpdateBatchResp) DecodeWire(d *wire.Dec) error {
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Acks = make([]Ack, n)
	for i := range r.Acks {
		if err := r.Acks[i].DecodeWire(d); err != nil {
			return err
		}
	}
	return nil
}

// --- residence move -------------------------------------------------------

func (r ResidenceMoveReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.Residence))
	return wire.AppendString(dst, string(r.Node))
}

func (r *ResidenceMoveReq) DecodeWire(d *wire.Dec) error {
	res, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	node, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Residence, r.Node = ids.ResidenceID(res), platform.NodeID(node)
	return nil
}

func (r ResidenceMoveResp) AppendWire(dst []byte) []byte {
	dst = appendStatus(dst, r.Status)
	dst = wire.AppendUvarint(dst, r.HashVersion)
	return wire.AppendUvarint(dst, uint64(r.Bound))
}

func (r *ResidenceMoveResp) DecodeWire(d *wire.Dec) error {
	var err error
	if r.Status, err = decodeStatus(d); err != nil {
		return err
	}
	if r.HashVersion, err = d.Uvarint(); err != nil {
		return err
	}
	bound, err := d.Uvarint()
	r.Bound = int(bound)
	return err
}

// --- discover -------------------------------------------------------------

func (r DiscoverReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(r.Caps)))
	for _, c := range r.Caps {
		dst = wire.AppendString(dst, c)
	}
	dst = wire.AppendString(dst, string(r.Near))
	return wire.AppendUvarint(dst, uint64(r.Limit))
}

func (r *DiscoverReq) DecodeWire(d *wire.Dec) error {
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Caps = nil
	if n > 0 {
		r.Caps = make([]string, n)
		for i := range r.Caps {
			if r.Caps[i], err = d.StringIn(maxWireIDLen, wireIntern); err != nil {
				return err
			}
		}
	}
	near, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Near = platform.NodeID(near)
	limit, err := d.Uvarint()
	if err != nil {
		return err
	}
	if limit > maxWireBatch {
		return fmt.Errorf("%w: "+wireBatchGuard, wire.ErrCorrupt, limit)
	}
	r.Limit = int(limit)
	return nil
}

func (m DiscoverMatch) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(m.Agent))
	return wire.AppendString(dst, string(m.Node))
}

func (m *DiscoverMatch) DecodeWire(d *wire.Dec) error {
	agent, err := d.String(maxWireIDLen)
	if err != nil {
		return err
	}
	node, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	m.Agent, m.Node = ids.AgentID(agent), platform.NodeID(node)
	return nil
}

func (r DiscoverResp) AppendWire(dst []byte) []byte {
	dst = appendStatus(dst, r.Status)
	dst = wire.AppendUvarint(dst, r.HashVersion)
	dst = wire.AppendUvarint(dst, uint64(len(r.Matches)))
	for i := range r.Matches {
		dst = r.Matches[i].AppendWire(dst)
	}
	return dst
}

func (r *DiscoverResp) DecodeWire(d *wire.Dec) error {
	var err error
	if r.Status, err = decodeStatus(d); err != nil {
		return err
	}
	if r.HashVersion, err = d.Uvarint(); err != nil {
		return err
	}
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Matches = nil
	if n > 0 {
		r.Matches = make([]DiscoverMatch, n)
		for i := range r.Matches {
			if err := r.Matches[i].DecodeWire(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- whois / refresh ------------------------------------------------------

func (r WhoisReq) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, string(r.Target))
}

func (r *WhoisReq) DecodeWire(d *wire.Dec) error {
	s, err := d.String(maxWireIDLen)
	r.Target = ids.AgentID(s)
	return err
}

func (r WhoisResp) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.IAgent))
	dst = wire.AppendString(dst, string(r.Node))
	return wire.AppendUvarint(dst, r.HashVersion)
}

func (r *WhoisResp) DecodeWire(d *wire.Dec) error {
	ia, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	node, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.IAgent, r.Node = ids.AgentID(ia), platform.NodeID(node)
	r.HashVersion, err = d.Uvarint()
	return err
}

func (r RefreshReq) AppendWire(dst []byte) []byte {
	return wire.AppendUvarint(dst, r.MinVersion)
}

func (r *RefreshReq) DecodeWire(d *wire.Dec) error {
	var err error
	r.MinVersion, err = d.Uvarint()
	return err
}

func (r RefreshResp) AppendWire(dst []byte) []byte {
	return wire.AppendUvarint(dst, r.HashVersion)
}

func (r *RefreshResp) DecodeWire(d *wire.Dec) error {
	var err error
	r.HashVersion, err = d.Uvarint()
	return err
}

// --- sibling checkpoint ----------------------------------------------------

// The hash version leads, so the receiver can refuse a push from across a
// rehash (checkpointReqVersion) before it decodes a single entry.
func (r CheckpointReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, r.HashVersion)
	dst = wire.AppendString(dst, string(r.From))
	dst = wire.AppendUvarint(dst, r.Seq)
	var full byte
	if r.Full {
		full = 1
	}
	dst = append(dst, full)
	dst = wire.AppendUvarint(dst, uint64(len(r.Entries)))
	for a, n := range r.Entries {
		dst = wire.AppendString(dst, string(a))
		dst = wire.AppendString(dst, string(n))
	}
	dst = wire.AppendUvarint(dst, uint64(len(r.Removed)))
	for _, a := range r.Removed {
		dst = wire.AppendString(dst, string(a))
	}
	dst = wire.AppendUvarint(dst, uint64(len(r.Caps)))
	for a, caps := range r.Caps {
		dst = wire.AppendString(dst, string(a))
		dst = wire.AppendUvarint(dst, uint64(len(caps)))
		for _, c := range caps {
			dst = wire.AppendString(dst, c)
		}
	}
	return dst
}

func (r *CheckpointReq) DecodeWire(d *wire.Dec) error {
	var err error
	if r.HashVersion, err = d.Uvarint(); err != nil {
		return err
	}
	from, err := d.StringIn(maxWireIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.From = ids.AgentID(from)
	if r.Seq, err = d.Uvarint(); err != nil {
		return err
	}
	full, err := d.Byte()
	if err != nil {
		return err
	}
	if full > 1 {
		return fmt.Errorf("%w: checkpoint full flag %d", wire.ErrCorrupt, full)
	}
	r.Full = full == 1
	n, err := batchLen(d)
	if err != nil {
		return err
	}
	r.Entries = nil
	if n > 0 {
		r.Entries = make(map[ids.AgentID]platform.NodeID, n)
	}
	for i := 0; i < n; i++ {
		agent, err := d.String(maxWireIDLen)
		if err != nil {
			return err
		}
		node, err := d.StringIn(maxWireIDLen, wireIntern)
		if err != nil {
			return err
		}
		r.Entries[ids.AgentID(agent)] = platform.NodeID(node)
	}
	if n, err = batchLen(d); err != nil {
		return err
	}
	r.Removed = nil
	if n > 0 {
		r.Removed = make([]ids.AgentID, n)
	}
	for i := range r.Removed {
		agent, err := d.String(maxWireIDLen)
		if err != nil {
			return err
		}
		r.Removed[i] = ids.AgentID(agent)
	}
	if n, err = batchLen(d); err != nil {
		return err
	}
	r.Caps = nil
	if n > 0 {
		r.Caps = make(map[ids.AgentID][]string, n)
	}
	for i := 0; i < n; i++ {
		agent, err := d.String(maxWireIDLen)
		if err != nil {
			return err
		}
		tags, err := batchLen(d)
		if err != nil {
			return err
		}
		caps := make([]string, tags)
		for j := range caps {
			if caps[j], err = d.StringIn(maxWireIDLen, wireIntern); err != nil {
				return err
			}
		}
		r.Caps[ids.AgentID(agent)] = caps
	}
	return nil
}

// checkpointReqVersion reads the hash version off a binary-coded
// CheckpointReq without decoding what follows it. binary is false for any
// other payload (gob, empty, malformed), which the caller decodes whole.
func checkpointReqVersion(payload []byte) (version uint64, binary bool) {
	ver, body, ok := wire.MsgHeader(payload)
	if !ok || ver > wire.MsgVersion {
		return 0, false
	}
	d := wire.NewDec(body)
	version, err := d.Uvarint()
	return version, err == nil
}

func (r CheckpointResp) AppendWire(dst []byte) []byte {
	dst = appendStatus(dst, r.Status)
	return wire.AppendUvarint(dst, r.HashVersion)
}

func (r *CheckpointResp) DecodeWire(d *wire.Dec) error {
	var err error
	if r.Status, err = decodeStatus(d); err != nil {
		return err
	}
	r.HashVersion, err = d.Uvarint()
	return err
}
