package core

import (
	"fmt"
	"slices"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/wire"
)

// Hand-rolled binary codecs for the hot-path DTOs: locate (single and
// batched), update (single and batched), deregister, residence-move,
// discover, and their responses — and for the sibling checkpoint push and the
// rehash handoff, whose bodies are record streams. The LHAgent's reads
// (whois, whois-batch, leaves, refresh) have none: they are answered in place
// on the caller's own node and never cross a link.
// The rest of the cold control plane — hash state pushes, split/merge
// requests — stays on gob, where flexibility beats cycles; a message
// that carries a hash state carries it as one byte field, the StateDTO
// bytes the snapshot sections store (state.go). Each codec
// implements wire.Marshaler and wire.Unmarshaler, which is what makes
// transport.Encode pick it, for every peer; transport.Decode dispatches on the
// payload header.
//
// Node and residence ids recur endlessly across messages (a cluster has few
// nodes but millions of location updates), so decodes run them through a
// process-wide interner: the steady state resolves them with zero
// allocations.

// Wire field limits. Identifier lengths beyond wire.MaxIDLen mark
// corruption, and a batch's declared entry count is sanity-bounded before any
// allocation.
const (
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
	s, err := d.String(wire.MaxIDLen)
	r.Agent = ids.AgentID(s)
	return err
}

// binaryBody returns the body of a binary-coded request that a leaf serves off
// the frame. Those requests are wire.Marshalers, so no sender produces another
// form: any other payload (gob, empty) is refused as corrupt.
func binaryBody(payload []byte, what string) ([]byte, error) {
	ver, body, ok := wire.MsgHeader(payload)
	if !ok {
		return nil, fmt.Errorf("%w: %s is not a binary message", wire.ErrCorrupt, what)
	}
	if ver > wire.MsgVersion {
		return nil, fmt.Errorf("%w: message version %d, this build reads ≤ %d", wire.ErrUnsupportedVersion, ver, wire.MsgVersion)
	}
	return body, nil
}

// locateReqAgent reads the agent id of a binary-coded LocateReq as a view
// into the payload, valid only as long as the payload is.
func locateReqAgent(payload []byte) (agent []byte, err error) {
	body, err := binaryBody(payload, "locate request")
	if err != nil {
		return nil, err
	}
	d := wire.NewDec(body)
	if agent, err = d.Bytes(wire.MaxIDLen); err == nil {
		err = d.Done()
	}
	return agent, err
}

// locateBatchReqIDs is locateReqAgent for a LocateBatchReq: it checks the
// frame, accepting exactly what LocateBatchReq.DecodeWire accepts
// (FuzzLocateBatchFrame holds the two to that), and returns the number of ids
// and the bytes holding them, back to back, a view into the payload. No id is
// copied and nothing is allocated.
func locateBatchReqIDs(payload []byte) (n int, list []byte, err error) {
	body, err := binaryBody(payload, "locate batch request")
	if err != nil {
		return 0, nil, err
	}
	d := wire.NewDec(body)
	if n, err = batchLen(d); err != nil {
		return 0, nil, err
	}
	list = body[len(body)-d.Remaining():]
	for range n {
		if _, err = d.Bytes(wire.MaxIDLen); err != nil {
			return 0, nil, err
		}
	}
	return n, list, d.Done()
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
	node, err := d.StringIn(wire.MaxIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Node = platform.NodeID(node)
	r.HashVersion, err = d.Uvarint()
	return err
}

// appendList and decodeList carry a list of DTOs: a count, then each
// element's own encoding. decodeList decodes into the room dst has, so a list
// decoded into again allocates nothing; an empty list decodes as nil.
func appendList[T wire.Marshaler](dst []byte, list []T) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(list)))
	for _, v := range list {
		dst = v.AppendWire(dst)
	}
	return dst
}

func decodeList[T any, P interface {
	*T
	wire.Unmarshaler
}](dst []T, d *wire.Dec) ([]T, error) {
	n, err := batchLen(d)
	if err != nil || n == 0 {
		return nil, err
	}
	list := slices.Grow(dst[:0], n)[:n]
	for i := range list {
		if err := P(&list[i]).DecodeWire(d); err != nil {
			return nil, err
		}
	}
	return list, nil
}

// appendIDs and decodeIDs carry a list of agent ids: a count, then each id.
// An empty list decodes as nil.
func appendIDs(dst []byte, list []ids.AgentID) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(list)))
	for _, a := range list {
		dst = wire.AppendString(dst, string(a))
	}
	return dst
}

func decodeIDs(d *wire.Dec) ([]ids.AgentID, error) {
	n, err := batchLen(d)
	if err != nil || n == 0 {
		return nil, err
	}
	list := make([]ids.AgentID, n)
	for i := range list {
		s, err := d.String(wire.MaxIDLen)
		if err != nil {
			return nil, err
		}
		list[i] = ids.AgentID(s)
	}
	return list, nil
}

// appendTags and decodeTags do the same for capability tags, which recur
// across agents and so are interned like node ids.
func appendTags(dst []byte, tags []string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(tags)))
	for _, c := range tags {
		dst = wire.AppendString(dst, c)
	}
	return dst
}

func decodeTags(d *wire.Dec) ([]string, error) {
	n, err := batchLen(d)
	if err != nil || n == 0 {
		return nil, err
	}
	tags := make([]string, n)
	for i := range tags {
		if tags[i], err = d.StringIn(wire.MaxIDLen, wireIntern); err != nil {
			return nil, err
		}
	}
	return tags, nil
}

func (r LocateBatchReq) AppendWire(dst []byte) []byte {
	return appendIDs(dst, r.Agents)
}

func (r *LocateBatchReq) DecodeWire(d *wire.Dec) error {
	var err error
	r.Agents, err = decodeIDs(d)
	return err
}

func (r LocateBatchResp) AppendWire(dst []byte) []byte {
	return appendList(dst, r.Results)
}

// DecodeWire reuses the room r.Results has, so a response decoded into
// again — a LocateBatch leg's, in its pooled call — allocates nothing.
func (r *LocateBatchResp) DecodeWire(d *wire.Dec) error {
	var err error
	r.Results, err = decodeList(r.Results, d)
	return err
}

// --- update / deregister ---------------------------------------

func (r UpdateReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.Agent))
	dst = wire.AppendString(dst, string(r.Node))
	dst = wire.AppendString(dst, string(r.Residence))
	// The capability count is always present (zero for the common plain
	// move): UpdateReqs concatenate inside UpdateBatchReq, so a trailing-
	// optional encoding would be ambiguous — the next update's agent id
	// would be misread as a capability count.
	return appendTags(dst, r.Capabilities)
}

func (r *UpdateReq) DecodeWire(d *wire.Dec) error { return r.decode(d, false) }

// decodeUpdateView decodes a binary-coded UpdateReq with its agent id a view
// of payload, valid only as long as payload is: a change made of it sets view.
func decodeUpdateView(payload []byte, r *UpdateReq) error {
	body, err := binaryBody(payload, "update request")
	if err != nil {
		return err
	}
	d := wire.NewDec(body)
	if err = r.decode(d, true); err == nil {
		err = d.Done()
	}
	return err
}

// decode is DecodeWire, with the agent id a view of d's data when view is set.
func (r *UpdateReq) decode(d *wire.Dec, view bool) error {
	read := d.String
	if view {
		read = d.View
	}
	agent, err := read(wire.MaxIDLen)
	if err != nil {
		return err
	}
	node, err := d.StringIn(wire.MaxIDLen, wireIntern)
	if err != nil {
		return err
	}
	res, err := d.StringIn(wire.MaxIDLen, wireIntern)
	if err != nil {
		return err
	}
	r.Agent, r.Node, r.Residence = ids.AgentID(agent), platform.NodeID(node), ids.ResidenceID(res)
	r.Capabilities, err = decodeTags(d)
	return err
}

func (r DeregisterReq) AppendWire(dst []byte) []byte {
	return wire.AppendString(dst, string(r.Agent))
}

func (r *DeregisterReq) DecodeWire(d *wire.Dec) error {
	s, err := d.String(wire.MaxIDLen)
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
	return appendList(dst, r.Updates)
}

func (r *UpdateBatchReq) DecodeWire(d *wire.Dec) error {
	var err error
	r.Updates, err = decodeList[UpdateReq](nil, d)
	return err
}

// updateBatchReqList is locateBatchReqIDs for an UpdateBatchReq: it checks the
// frame, accepting exactly what UpdateBatchReq.DecodeWire accepts
// (FuzzUpdateBatchFrame holds the two to that), and returns the number of
// updates and the bytes holding them, back to back, a view into the payload.
// Nothing is copied, interned or allocated.
func updateBatchReqList(payload []byte) (n int, list []byte, err error) {
	body, err := binaryBody(payload, "update batch request")
	if err != nil {
		return 0, nil, err
	}
	d := wire.NewDec(body)
	if n, err = batchLen(d); err != nil {
		return 0, nil, err
	}
	list = body[len(body)-d.Remaining():]
	for range n {
		// Three ids, then a list of tags (UpdateReq.decode).
		for range 3 {
			if _, err = d.Bytes(wire.MaxIDLen); err != nil {
				return 0, nil, err
			}
		}
		tags, err := batchLen(d)
		for i := 0; i < tags && err == nil; i++ {
			_, err = d.Bytes(wire.MaxIDLen)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return n, list, d.Done()
}

func (r UpdateBatchResp) AppendWire(dst []byte) []byte {
	return appendList(dst, r.Acks)
}

// DecodeWire reuses the room r.Acks has, so a batcher's response decoded into
// again allocates nothing.
func (r *UpdateBatchResp) DecodeWire(d *wire.Dec) error {
	var err error
	r.Acks, err = decodeList(r.Acks, d)
	return err
}

// --- residence move -------------------------------------------------------

func (r ResidenceMoveReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(r.Residence))
	return wire.AppendString(dst, string(r.Node))
}

func (r *ResidenceMoveReq) DecodeWire(d *wire.Dec) error {
	res, err := d.StringIn(wire.MaxIDLen, wireIntern)
	if err != nil {
		return err
	}
	node, err := d.StringIn(wire.MaxIDLen, wireIntern)
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
	dst = appendTags(dst, r.Caps)
	dst = wire.AppendString(dst, string(r.Near))
	return wire.AppendUvarint(dst, uint64(r.Limit))
}

// DecodeWire interns each tag and near: the same few recur across queries.
func (r *DiscoverReq) DecodeWire(d *wire.Dec) error {
	r.Caps = nil
	near, limit, err := readDiscoverReq(d, func(tag string) {
		r.Caps = append(r.Caps, wireIntern.Intern([]byte(tag)))
	})
	if err != nil {
		return err
	}
	r.Near, r.Limit = platform.NodeID(wireIntern.Intern([]byte(near))), limit
	return nil
}

// readDiscoverReq reads a DiscoverReq body without copying: each tag is handed
// to tag, and near is returned, as views of d's data, valid only as long as
// those bytes are.
func readDiscoverReq(d *wire.Dec, tag func(string)) (near string, limit int, err error) {
	n, err := batchLen(d)
	if err != nil {
		return "", 0, err
	}
	for range n {
		t, err := d.View(wire.MaxIDLen)
		if err != nil {
			return "", 0, err
		}
		tag(t)
	}
	if near, err = d.View(wire.MaxIDLen); err != nil {
		return "", 0, err
	}
	v, err := d.Uvarint()
	if err != nil {
		return "", 0, err
	}
	if v > maxWireBatch {
		return "", 0, fmt.Errorf("%w: "+wireBatchGuard, wire.ErrCorrupt, v)
	}
	return near, int(v), nil
}

func (m DiscoverMatch) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, string(m.Agent))
	return wire.AppendString(dst, string(m.Node))
}

func (r DiscoverResp) AppendWire(dst []byte) []byte {
	dst = appendStatus(dst, r.Status)
	dst = wire.AppendUvarint(dst, r.HashVersion)
	return appendList(dst, r.Matches)
}

// DecodeWire copies every match's agent id out of d: a DiscoverResp keeps no
// view of its reply.
func (r *DiscoverResp) DecodeWire(d *wire.Dec) error {
	r.Matches = nil
	var err error
	r.Status, r.HashVersion, err = readDiscoverResp(d, func(agent []byte, node platform.NodeID) {
		r.Matches = append(r.Matches, DiscoverMatch{Agent: ids.AgentID(agent), Node: node})
	})
	return err
}

// readDiscoverResp reads a DiscoverResp body, handing each match to match
// with its agent id a view of d's data, valid only during the call.
func readDiscoverResp(d *wire.Dec, match func(agent []byte, node platform.NodeID)) (Status, uint64, error) {
	status, err := decodeStatus(d)
	if err != nil {
		return 0, 0, err
	}
	version, err := d.Uvarint()
	if err != nil {
		return 0, 0, err
	}
	n, err := batchLen(d)
	if err != nil {
		return 0, 0, err
	}
	for range n {
		agent, err := d.Bytes(wire.MaxIDLen)
		if err != nil {
			return 0, 0, err
		}
		node, err := d.StringIn(wire.MaxIDLen, wireIntern)
		if err != nil {
			return 0, 0, err
		}
		match(agent, platform.NodeID(node))
	}
	return status, version, nil
}

// --- sibling checkpoint ----------------------------------------------------

// The hash version leads, so the receiver can refuse a push from across a
// rehash (checkpointReqVersion) before it reads a single record. The record
// stream fills the rest of the message.
func (r CheckpointReq) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, r.HashVersion)
	dst = wire.AppendString(dst, string(r.From))
	dst = wire.AppendUvarint(dst, r.Seq)
	var full byte
	if r.Full {
		full = 1
	}
	dst = append(dst, full)
	dst = wire.AppendUvarint(dst, r.Offset)
	dst = wire.AppendUvarint(dst, r.Live)
	dst = append(dst, r.Records...)
	for a, n := range r.Entries {
		dst = snapshot.AppendStream(dst, snapshot.Record{Op: snapshot.OpPut, Agent: string(a), Node: string(n)})
	}
	return dst
}

// DecodeWire leaves the records a view of d's bytes, unchecked: the receiver
// checks them (acceptCheckpoint) before it keeps a copy.
func (r *CheckpointReq) DecodeWire(d *wire.Dec) error {
	var err error
	if r.HashVersion, err = d.Uvarint(); err != nil {
		return err
	}
	from, err := d.StringIn(wire.MaxIDLen, wireIntern)
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
	if r.Offset, err = d.Uvarint(); err != nil {
		return err
	}
	if r.Live, err = d.Uvarint(); err != nil {
		return err
	}
	r.Records, r.Entries = nil, nil
	if rest := d.Rest(); len(rest) > 0 {
		r.Records = rest
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

// --- rehash handoff --------------------------------------------------------

// The record stream leads, behind its length; the mail fills the rest, each
// message behind its target.
func (r HandoffReq) AppendWire(dst []byte) []byte {
	records := r.Records
	if len(r.Entries) > 0 {
		records = slices.Clone(records)
		for a, n := range r.Entries {
			records = snapshot.AppendStream(records, snapshot.Record{Op: snapshot.OpPut, Agent: string(a), Node: string(n), Load: r.Load[a]})
		}
	}
	dst = wire.AppendBytes(dst, records)
	for target, msgs := range r.Pending {
		for _, m := range msgs {
			dst = wire.AppendString(dst, string(target))
			dst = wire.AppendString(dst, string(m.From))
			dst = wire.AppendString(dst, m.Kind)
			dst = wire.AppendBytes(dst, m.Payload)
		}
	}
	return dst
}

// DecodeWire leaves the records a view of d's bytes, unchecked (handoffChanges
// checks them), and copies out the mail, which the receiver keeps.
func (r *HandoffReq) DecodeWire(d *wire.Dec) error {
	records, err := d.Bytes(wire.MaxFrameLen)
	*r = HandoffReq{}
	if len(records) > 0 {
		r.Records = records
	}
	var f [3]string // target, from, kind
	for err == nil && d.Remaining() > 0 {
		var payload []byte
		for i := 0; i < len(f) && err == nil; i++ {
			f[i], err = d.String(wire.MaxIDLen)
		}
		if err == nil {
			payload, err = d.Bytes(wire.MaxFrameLen)
		}
		if err == nil {
			if r.Pending == nil {
				r.Pending = make(map[ids.AgentID][]Deposited)
			}
			r.Pending[ids.AgentID(f[0])] = append(r.Pending[ids.AgentID(f[0])], Deposited{From: ids.AgentID(f[1]), Kind: f[2], Payload: append([]byte(nil), payload...)})
		}
	}
	return err
}
