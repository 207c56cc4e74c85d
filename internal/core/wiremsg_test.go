package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"agentloc/internal/ids"
	"agentloc/internal/platform"
	"agentloc/internal/snapshot"
	"agentloc/internal/transport"
	"agentloc/internal/wire"
)

// hotDTOs enumerates every hot-path DTO with a representative non-zero
// value. Each must round-trip bit-exactly through the binary codec, and its
// gob form must be refused.
func hotDTOs() []any {
	return []any{
		LocateReq{Agent: "agent-7"},
		LocateResp{Status: StatusOK, Node: "node-3", HashVersion: 42},
		LocateBatchReq{Agents: []ids.AgentID{"a", "b", "c"}},
		LocateBatchResp{Results: []LocateResp{
			{Status: StatusOK, Node: "n1", HashVersion: 7},
			{Status: StatusUnknownAgent, HashVersion: 7},
		}},
		UpdateReq{Agent: "roamer", Node: "node-9", Residence: "res-2"},
		UpdateReq{Agent: "loner", Node: "node-9"}, // empty residence clears a binding
		UpdateReq{Agent: "skilled", Node: "node-1", Capabilities: []string{"gpu", "ocr"}},
		DeregisterReq{Agent: "done"},
		Ack{Status: StatusNotResponsible, HashVersion: 99},
		UpdateBatchReq{Updates: []UpdateReq{
			{Agent: "x", Node: "n", Residence: "r"},
			{Agent: "y", Node: "n"},
		}},
		UpdateBatchResp{Acks: []Ack{{Status: StatusOK, HashVersion: 1}, {Status: StatusUnknownAgent, HashVersion: 1}}},
		ResidenceMoveReq{Residence: "res-5", Node: "node-2"},
		ResidenceMoveResp{Status: StatusOK, HashVersion: 12, Bound: 37},
		DiscoverReq{Caps: []string{"gpu", "planner"}, Near: "node-2", Limit: 8},
		DiscoverReq{Caps: []string{"gpu"}},
		DiscoverResp{Status: StatusOK, HashVersion: 9, Matches: []DiscoverMatch{
			{Agent: "a1", Node: "n1"},
			{Agent: "a2", Node: "n2"},
		}},
		DiscoverResp{Status: StatusNotResponsible, HashVersion: 10},
		CheckpointResp{Status: StatusIgnored, HashVersion: 9},
	}
}

// readDTOs are the LHAgent's reads. They have no wire codec: they are
// answered in place on the caller's node and never cross a link, so should one
// be encoded it is gob, like any control-plane message.
func readDTOs() []any {
	return []any{
		WhoisReq{Target: "whom"},
		WhoisResp{IAgent: "ia-01", Node: "node-1", HashVersion: 5},
		RefreshReq{MinVersion: 17},
		RefreshResp{HashVersion: 18},
		WhoisBatchReq{Targets: []ids.AgentID{"a", "b", "c"}},
		WhoisBatchResp{HashVersion: 6, Leaves: []LeafRef{{IAgent: "iagent-1", Node: "node-0"}, {IAgent: "iagent-2", Node: "node-1"}},
			Owner: []uint32{1, 0, 1}},
	}
}

// hasCodec reports whether v's type, or a pointer to it, implements either
// half of the wire codec.
func hasCodec(v any) bool {
	p := newZero(v)
	_, m := p.(wire.Marshaler)
	_, u := p.(wire.Unmarshaler)
	return m || u
}

// gobForm is v's gob encoding, built without transport.
func gobForm(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// checkpointDTOs are sibling-checkpoint pushes: binary like the hot DTOs,
// held to the same two round trips, but fuzzed on their own
// (FuzzCheckpointReqDecode), which also checks and folds the record stream.
// The push's answer, CheckpointResp, is among the hot DTOs.
func checkpointDTOs() []any {
	return []any{
		CheckpointReq{From: "iagent-3", HashVersion: 9, Seq: 4, Full: true, Live: 3, Records: stream(
			snapshot.Record{Op: snapshot.OpPut, Agent: "a-1", Node: "node-1"},
			snapshot.Record{Op: snapshot.OpPut, Agent: "a-2", Node: "node-2", Caps: []string{"gpu", "ocr"}},
			snapshot.Record{Op: snapshot.OpPut, Agent: "a-3", Node: "node-1", Handle: "res@x"})},
		// A suffix: a move, a bound join, deletes.
		CheckpointReq{From: "iagent-3", HashVersion: 9, Seq: 4, Live: 2, Records: stream(
			snapshot.Record{Op: snapshot.OpPut, Agent: "a-2", Node: "node-0"},
			snapshot.Record{Op: snapshot.OpPut, Agent: "a-4", Node: "node-5", Handle: "res@x"},
			snapshot.Record{Op: snapshot.OpDelete, Agent: "a-1"},
			snapshot.Record{Op: snapshot.OpDelete, Agent: "a-3"})},
		CheckpointReq{From: "iagent-1", HashVersion: 1, Seq: 1, Full: true}, // an empty table's full push
		CheckpointReq{From: "iagent-3", HashVersion: 9, Seq: 4, Full: true, Offset: 8192, Live: 9000, Records: stream(
			snapshot.Record{Op: snapshot.OpPut, Agent: "a-9", Node: "node-1"})}, // a later chunk
	}
}

// handoffDTOs are rehash handoffs: binary like the hot DTOs, held to the same
// two round trips, and fuzzed on their own (FuzzHandoffReqDecode) — an entry,
// a bound agent, an advertising agent, and mail.
func handoffDTOs() []any {
	return []any{
		HandoffReq{Records: stream(snapshot.Record{Op: snapshot.OpPut, Agent: "a-1", Node: "node-1", Load: 3})},
		HandoffReq{Records: stream(snapshot.Record{Op: snapshot.OpPut, Agent: "a-2", Node: "node-2", Handle: "res@x", Load: 1})},
		HandoffReq{Records: stream(snapshot.Record{Op: snapshot.OpPut, Agent: "a-3", Node: "node-1", Caps: []string{"gpu", "ocr"}})},
		HandoffReq{Pending: map[ids.AgentID][]Deposited{"a-4": {{From: "sender", Kind: "note", Payload: []byte("hi")}, {Kind: "empty"}}}},
	}
}

// stream is the record stream of recs.
func stream(recs ...snapshot.Record) []byte {
	var out []byte
	for _, rec := range recs {
		out = snapshot.AppendStream(out, rec)
	}
	return out
}

// newZero builds a pointer to a fresh zero value of v's type, for decoding
// into.
func newZero(v any) any {
	return reflect.New(reflect.TypeOf(v)).Interface()
}

// TestHotDTOBinaryRoundTrip: every message round-trips through transport,
// in binary exactly when its type has a codec — every hot DTO, and none of
// the LHAgent's reads.
func TestHotDTOBinaryRoundTrip(t *testing.T) {
	for _, v := range readDTOs() {
		if hasCodec(v) {
			t.Errorf("%T has a wire codec; the LHAgent's reads never cross a link", v)
		}
	}
	for _, v := range slices.Concat(hotDTOs(), checkpointDTOs(), handoffDTOs(), readDTOs()) {
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) {
			payload, err := transport.EncodeV(v, wire.MsgVersion)
			if err != nil {
				t.Fatalf("EncodeV: %v", err)
			}
			if _, _, binary := wire.MsgHeader(payload); binary != hasCodec(v) {
				t.Fatalf("EncodeV(%T) binary %v, codec %v — Marshaler not satisfied on the value", v, binary, hasCodec(v))
			}
			got := newZero(v)
			if err := transport.Decode(payload, got); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), v) {
				t.Errorf("round trip: got %+v, want %+v", got, v)
			}
		})
	}
}

// TestHotDTOGobFallbackRoundTrip: gob is the one form of a message without a
// codec and no form at all of one with a codec — transport.Decode refuses it
// rather than fall back.
func TestHotDTOGobFallbackRoundTrip(t *testing.T) {
	for _, v := range slices.Concat(hotDTOs(), checkpointDTOs(), handoffDTOs(), readDTOs()) {
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) {
			payload := gobForm(t, v)
			got := newZero(v)
			err := transport.Decode(payload, got)
			if hasCodec(v) {
				if !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("Decode of the gob form of %T = %v, want wire.ErrCorrupt", v, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(reflect.ValueOf(got).Elem().Interface(), v) {
				t.Errorf("round trip: got %+v, want %+v", got, v)
			}
		})
	}
}

// The registration path reuses the update wire shape (Residence empty), so
// a binary UpdateReq must decode cleanly where KindRegister is handled.
func TestRegisterCarriesUpdateShape(t *testing.T) {
	payload, err := transport.EncodeV(UpdateReq{Agent: "newborn", Node: "node-4"}, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	var req UpdateReq
	if err := transport.Decode(payload, &req); err != nil {
		t.Fatalf("decode register-as-update: %v", err)
	}
	if req.Agent != "newborn" || req.Node != "node-4" || req.Residence != "" {
		t.Errorf("got %+v", req)
	}
}

func TestBatchLenRejectsOversizedCount(t *testing.T) {
	// A declared count far beyond the remaining bytes must fail before any
	// allocation, for every batch-carrying DTO.
	body := wire.AppendUvarint(nil, 1<<30)
	for _, target := range []wire.Unmarshaler{
		&LocateBatchReq{}, &LocateBatchResp{}, &UpdateBatchReq{}, &UpdateBatchResp{},
		&DiscoverReq{},
	} {
		d := wire.NewDec(body)
		if err := target.DecodeWire(d); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%T: err = %v, want ErrCorrupt", target, err)
		}
	}
	// So must the leaf's read of a batch off the frame.
	if _, _, err := locateBatchReqIDs(append(wire.AppendMsgHeader(nil, wire.MsgVersion), body...)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("frame-served batch: err = %v, want ErrCorrupt", err)
	}
}

// TestCheckpointReqRejectsBadCounts: a push's flag, and every length and
// count of its record stream, are checked — a record its length prefix runs
// past, a capability count its bytes cannot hold, or a record no push carries
// is a typed error, and the buddy keeps nothing of it; so is a payload cut
// anywhere, unless the cut falls between two records.
func TestCheckpointReqRejectsBadCounts(t *testing.T) {
	var req CheckpointReq
	flag := append(wire.AppendString(wire.AppendUvarint(nil, 7), "iagent"), 1, 2, 0, 0)
	if err := req.DecodeWire(wire.NewDec(flag)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("flag 2: err = %v, want ErrCorrupt", err)
	}
	put := snapshot.Record{Op: snapshot.OpPut, Agent: "a-1", Node: "node-1"}
	bad := func(edit func(*snapshot.Record)) []byte {
		rec := put
		edit(&rec)
		return stream(rec)
	}
	caps := snapshot.AppendRecord(nil, put)
	caps = wire.AppendUvarint(caps, 1<<30) // a capability count
	for name, records := range map[string][]byte{
		"record length":    wire.AppendUvarint(nil, 1<<40),
		"record past end":  append(wire.AppendUvarint(nil, 40), 1, 0),
		"capability count": wire.AppendBytes(nil, caps),
		"iagent":           bad(func(r *snapshot.Record) { r.IAgent = "iagent-1" }),
		"version":          bad(func(r *snapshot.Record) { r.HashVersion = 3 }),
		"load":             bad(func(r *snapshot.Record) { r.Load = 1 }),
		"put, no address":  bad(func(r *snapshot.Record) { r.Node = "" }),
		"delete, address":  bad(func(r *snapshot.Record) { r.Op = snapshot.OpDelete }),
	} {
		if err := checkStream(append(stream(put), records...)); !typedWireError(err) {
			t.Errorf("%s: err = %v, want a typed wire error", name, err)
		}
	}
	whole := checkpointDTOs()[0].(CheckpointReq).AppendWire(nil)
	for cut := 0; cut < len(whole); cut++ {
		err := req.DecodeWire(wire.NewDec(whole[:cut]))
		if err == nil {
			err = checkStream(req.Records)
		}
		if err != nil && !typedWireError(err) {
			t.Fatalf("cut at %d of %d: err = %v, want a typed wire error", cut, len(whole), err)
		}
	}

	_, buddy, ctx := bareLeaf(t, failoverConfig(), true)
	push := CheckpointReq{From: "iagent-1", HashVersion: 1, Full: true, Records: append(stream(put), bad(func(r *snapshot.Record) { r.Load = 1 })...)}
	if err := ctx.Call(testCtx(t), "node-0", "iagent-2", KindCheckpoint, push, &CheckpointResp{}); err == nil {
		t.Error("the buddy accepted a push with a bad record")
	}
	buddy.mu.Lock()
	defer buddy.mu.Unlock()
	if _, held := buddy.checkpoints["iagent-1"]; held {
		t.Error("the buddy kept part of a push it refused")
	}
}

// TestCheckpointReqVersionIsReadFirst: the receiver's early refusal reads
// the version and nothing after it.
func TestCheckpointReqVersionIsReadFirst(t *testing.T) {
	payload, err := transport.Encode(checkpointDTOs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{payload, payload[:5]} { // whole, and cut right after the version
		if ver, binary := checkpointReqVersion(p); !binary || ver != 9 {
			t.Errorf("version of a %d-byte payload = %d (binary %v), want 9", len(p), ver, binary)
		}
	}
	for _, p := range [][]byte{gobForm(t, checkpointDTOs()[0]), nil, payload[:4]} {
		if _, binary := checkpointReqVersion(p); binary {
			t.Errorf("a %d-byte non-binary payload was read as a binary push", len(p))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload, err := transport.EncodeV(LocateReq{Agent: "x"}, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, 0xFF)
	var req LocateReq
	if err := transport.Decode(payload, &req); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestInternReusesNodeIDStorage(t *testing.T) {
	// Two decodes of the same node id must yield the same backing string —
	// the interner's job on the million-agent path.
	payload, err := transport.EncodeV(LocateResp{Status: StatusOK, Node: "node-intern", HashVersion: 1}, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	var a, b LocateResp
	if err := transport.Decode(payload, &a); err != nil {
		t.Fatal(err)
	}
	if err := transport.Decode(payload, &b); err != nil {
		t.Fatal(err)
	}
	if string(a.Node) != string(b.Node) {
		t.Fatal("decoded different node ids")
	}
}

// FuzzHotMsgDecode drives every hot DTO decoder over arbitrary bodies. A
// successful decode must re-encode and re-decode to the same value
// (canonical-form round trip); failures must be typed wire errors, never
// panics.
func FuzzHotMsgDecode(f *testing.F) {
	factories := []func() wire.Unmarshaler{
		func() wire.Unmarshaler { return &LocateReq{} },
		func() wire.Unmarshaler { return &LocateResp{} },
		func() wire.Unmarshaler { return &LocateBatchReq{} },
		func() wire.Unmarshaler { return &LocateBatchResp{} },
		func() wire.Unmarshaler { return &UpdateReq{} },
		func() wire.Unmarshaler { return &DeregisterReq{} },
		func() wire.Unmarshaler { return &Ack{} },
		func() wire.Unmarshaler { return &UpdateBatchReq{} },
		func() wire.Unmarshaler { return &UpdateBatchResp{} },
		func() wire.Unmarshaler { return &ResidenceMoveReq{} },
		func() wire.Unmarshaler { return &ResidenceMoveResp{} },
		func() wire.Unmarshaler { return &DiscoverReq{} },
		func() wire.Unmarshaler { return &DiscoverResp{} },
		func() wire.Unmarshaler { return &CheckpointResp{} },
	}
	// Each hot DTO seeds its own decoder.
	for _, v := range hotDTOs() {
		for i, fresh := range factories {
			if reflect.TypeOf(fresh()).Elem() == reflect.TypeOf(v) {
				f.Add(uint8(i), v.(wire.Marshaler).AppendWire(nil))
			}
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		target := factories[int(which)%len(factories)]()
		d := wire.NewDec(body)
		if err := target.DecodeWire(d); err != nil {
			return
		}
		m, ok := target.(wire.Marshaler)
		if !ok {
			// Pointer-receiver marshal via the value.
			m, ok = reflect.ValueOf(target).Elem().Interface().(wire.Marshaler)
		}
		if !ok {
			t.Fatalf("%T decoded but does not marshal", target)
		}
		// Note: DecodeWire may leave trailing bytes (transport.Decode adds
		// the Done() check); re-encode only what was consumed.
		enc := m.AppendWire(nil)
		again := factories[int(which)%len(factories)]()
		if err := again.DecodeWire(wire.NewDec(enc)); err != nil {
			t.Fatalf("re-decode of re-encoded %T failed: %v\nbody: %x", target, err, enc)
		}
		if !reflect.DeepEqual(target, again) {
			t.Fatalf("%T not canonical: %+v vs %+v", target, target, again)
		}
		if m2, ok := again.(wire.Marshaler); ok {
			if !bytes.Equal(enc, m2.AppendWire(nil)) {
				t.Fatalf("%T encoding unstable", target)
			}
		}
	})
}

// FuzzCheckpointReqDecode drives the checkpoint push decoder, and the
// buddy's check of the record stream, over arbitrary bodies: failures must be
// typed wire errors, and a success must survive its own re-encoding as the
// same value. A stream that passes the check is held and folded as a buddy
// would, and the log of the fold folds to the same leaf, as a compaction must.
func FuzzCheckpointReqDecode(f *testing.F) {
	for _, v := range checkpointDTOs() {
		if req, ok := v.(CheckpointReq); ok {
			f.Add(req.AppendWire(nil))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CheckpointReq
		if err := req.DecodeWire(wire.NewDec(body)); err != nil {
			if !typedWireError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var again CheckpointReq
		if err := again.DecodeWire(wire.NewDec(req.AppendWire(nil))); err != nil {
			t.Fatalf("re-decode of a re-encoded push failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("not stable under re-encoding: %+v vs %+v", req, again)
		}
		if err := checkStream(req.Records); err != nil {
			if !typedWireError(err) {
				t.Fatalf("untyped check error: %v", err)
			}
			return
		}
		var held recordLog
		if n := held.Append(req.Records, 0); n != held.Len() {
			t.Fatalf("added %d records, the log counts %d", n, held.Len())
		}
		folded := held.fold()
		var compacted recordLog
		compacted.Append(folded.appendRecords(nil), 0)
		if got, want := readLeaf(compacted.fold()), readLeaf(folded); !reflect.DeepEqual(got, want) {
			t.Fatalf("a compacted copy folds to %v, the copy to %v", got, want)
		}
	})
}

// TestHandoffEntriesEncodeAsRecords: a handoff's Entries and Load are written
// as put records with their loads after Records, and a decoded handoff leaves
// both nil.
func TestHandoffEntriesEncodeAsRecords(t *testing.T) {
	req := HandoffReq{
		Records: stream(snapshot.Record{Op: snapshot.OpPut, Agent: "a-1", Node: "node-1", Caps: []string{"gpu"}}),
		Entries: map[ids.AgentID]platform.NodeID{"a-2": "node-2", "a-3": "node-3"},
		Load:    map[ids.AgentID]uint64{"a-2": 5},
	}
	var back HandoffReq
	if err := back.DecodeWire(wire.NewDec(req.AppendWire(nil))); err != nil {
		t.Fatal(err)
	}
	if back.Entries != nil || back.Load != nil {
		t.Fatalf("a decoded handoff has entries %v and loads %v", back.Entries, back.Load)
	}
	want := map[string]snapshot.Record{
		"a-1": {Op: snapshot.OpPut, Agent: "a-1", Node: "node-1", Caps: []string{"gpu"}},
		"a-2": {Op: snapshot.OpPut, Agent: "a-2", Node: "node-2", Load: 5},
		"a-3": {Op: snapshot.OpPut, Agent: "a-3", Node: "node-3"},
	}
	if got := leafStreamView(t, wire.NewDec(back.Records)); !reflect.DeepEqual(got, want) {
		t.Fatalf("records %v, want %v", got, want)
	}
}

// FuzzHandoffReqDecode drives the handoff decoder, and the receiver's check
// of its record stream, over arbitrary bodies: failures must be typed wire
// errors, and a success must survive its own re-encoding as the same value. A
// stream that passes the check applies to a fresh leaf, which then holds each
// agent it names.
func FuzzHandoffReqDecode(f *testing.F) {
	for _, v := range handoffDTOs() {
		f.Add(v.(HandoffReq).AppendWire(nil))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req HandoffReq
		if err := req.DecodeWire(wire.NewDec(body)); err != nil {
			if !typedWireError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var again HandoffReq
		if err := again.DecodeWire(wire.NewDec(req.AppendWire(nil))); err != nil {
			t.Fatalf("re-decode of a re-encoded handoff failed: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("not stable under re-encoding: %+v vs %+v", req, again)
		}
		changes, err := handoffChanges(req.Records)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refused with %v, want wire.ErrCorrupt", err)
			}
			return
		}
		leaf := newLeafState()
		leaf.apply(changes)
		for _, c := range changes {
			if _, ok := leaf.get(c.agent); !ok {
				t.Fatalf("handed-off %q is not held", c.agent)
			}
		}
	})
}

// FuzzLocateBatchFrame holds the leaf's read of a batch off the frame to the
// decoder it replaced: over any body, locateBatchReqIDs and transport.Decode
// into a LocateBatchReq accept the same payloads and yield the same ids, and a
// refusal is a typed wire error.
func FuzzLocateBatchFrame(f *testing.F) {
	f.Add(LocateBatchReq{Agents: []ids.AgentID{"a-0000001", "a-0000002", "a-0000003"}}.AppendWire(nil))
	f.Add(LocateBatchReq{}.AppendWire(nil))
	f.Add(wire.AppendUvarint(nil, 1<<30)) // a count the bytes cannot hold
	f.Fuzz(func(t *testing.T, body []byte) {
		payload := append(wire.AppendMsgHeader(nil, wire.MsgVersion), body...)
		n, list, err := locateBatchReqIDs(payload)
		var ref LocateBatchReq
		refErr := transport.Decode(payload, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("frame read err %v, decoder err %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		if n != len(ref.Agents) {
			t.Fatalf("frame read %d ids, decoder %d", n, len(ref.Agents))
		}
		d := wire.NewDec(list)
		for i := range n {
			if v, _ := d.Bytes(wire.MaxIDLen); string(v) != string(ref.Agents[i]) {
				t.Fatalf("id %d: frame read %q, decoder %q", i, v, ref.Agents[i])
			}
		}
	})
}

// FuzzUpdateBatchFrame holds the leaf's frame reader of an update batch to the
// decoder: updateBatchReqList accepts exactly what UpdateBatchReq.DecodeWire
// accepts, and each update read off its list, agent id a view, is the one the
// decoder yields.
func FuzzUpdateBatchFrame(f *testing.F) {
	f.Add(UpdateBatchReq{Updates: []UpdateReq{
		{Agent: "a-0000001", Node: "node-1"},
		{Agent: "a-0000002", Node: "node-2", Residence: "res-1"},
		{Agent: "a-0000003", Node: "node-1", Capabilities: []string{"ocr", "gpu"}},
	}}.AppendWire(nil))
	f.Add(UpdateBatchReq{}.AppendWire(nil))
	f.Add(wire.AppendUvarint(nil, 1<<30)) // a count the bytes cannot hold
	f.Fuzz(func(t *testing.T, body []byte) {
		payload := append(wire.AppendMsgHeader(nil, wire.MsgVersion), body...)
		n, list, err := updateBatchReqList(payload)
		var ref UpdateBatchReq
		refErr := transport.Decode(payload, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("frame read err %v, decoder err %v", err, refErr)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		if n != len(ref.Updates) {
			t.Fatalf("frame read %d updates, decoder %d", n, len(ref.Updates))
		}
		d := wire.NewDec(list)
		for i := range n {
			var u UpdateReq
			if err := u.decode(d, true); err != nil {
				t.Fatalf("update %d of a checked list: %v", i, err)
			}
			if !reflect.DeepEqual(u, ref.Updates[i]) {
				t.Fatalf("update %d: frame read %+v, decoder %+v", i, u, ref.Updates[i])
			}
		}
	})
}

// TestDiscoverLegRefusesTrailingBytes: a discovery leg whose reply has a byte
// past its last match fails as a leg and adds none of its matches to the call,
// which a later round — or the partial result of a discovery that runs out of
// retries — would otherwise return.
func TestDiscoverLegRefusesTrailingBytes(t *testing.T) {
	reply := DiscoverResp{Status: StatusOK, HashVersion: 3, Matches: []DiscoverMatch{{Agent: "a-1", Node: "node-1"}, {Agent: "a-2", Node: "node-2"}}}
	payload, err := transport.EncodeV(reply, wire.MsgVersion)
	if err != nil {
		t.Fatal(err)
	}
	var f discoverCall
	if err := transport.Decode(payload, &leafAnswer{call: &f}); err != nil || len(f.found) != 2 {
		t.Fatalf("a whole reply added %d matches: %v", len(f.found), err)
	}
	f = discoverCall{}
	err = transport.Decode(append(payload, 0), &leafAnswer{call: &f})
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("a reply with a trailing byte decoded: %v", err)
	}
	if len(f.found) != 0 || len(f.ends) != 0 || len(f.ids) != 0 {
		t.Fatalf("a refused reply added %d matches and %d id bytes", len(f.found), len(f.ids))
	}
}

// TestLocateBatchEndToEnd exercises the batched locate client API over the
// in-memory network: cache hits answered locally, misses shipped in grouped
// frames, unknown agents absent from the result.
func TestLocateBatchEndToEnd(t *testing.T) {
	c := newTestCluster(t, quietConfig(), 3)
	ctx := testCtx(t)

	want := make(map[ids.AgentID]platform.NodeID)
	var targets []ids.AgentID
	for i := 0; i < 12; i++ {
		agent := ids.AgentID(fmt.Sprintf("batch-agent-%02d", i))
		n := c.nodes[i%len(c.nodes)]
		if _, err := c.service.ClientFor(n).Register(ctx, agent); err != nil {
			t.Fatalf("register %s: %v", agent, err)
		}
		want[agent] = n.ID()
		targets = append(targets, agent)
	}
	targets = append(targets, "batch-ghost") // unregistered: absent from result

	querier := c.service.ClientFor(c.nodes[0])
	got, err := querier.LocateBatch(ctx, targets)
	if err != nil {
		t.Fatalf("LocateBatch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LocateBatch = %v, want %v", got, want)
	}

	// Second round: everything should come from the cache, same answers.
	got, err = querier.LocateBatch(ctx, targets)
	if err != nil {
		t.Fatalf("LocateBatch (cached): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cached LocateBatch = %v, want %v", got, want)
	}
}
