package snapshot

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"agentloc/internal/metrics"
	"agentloc/internal/wire"
)

func rec(i int) Record {
	return Record{Op: OpPut, IAgent: "ia-1", Agent: fmt.Sprintf("agent-%d", i), Node: fmt.Sprintf("node-%d", i%3), HashVersion: uint64(i)}
}

func openStore(t *testing.T, dir string, reg *metrics.Registry) *Store {
	t.Helper()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	want := []Record{
		rec(1), rec(2),
		{Op: OpPut, IAgent: "ia-1", Agent: "agent-2", Node: "node-1", HashVersion: 3, Caps: []string{"gpu", "ocr"}},
		{Op: OpDelete, IAgent: "ia-1", Agent: "agent-1", HashVersion: 3},
	}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A record in the encoding that predates Caps (no trailing field) still
	// decodes, with no capability set.
	legacy := []byte{OpPut}
	for _, f := range []string{"ia-1", "agent-9", "node-2"} {
		legacy = wire.AppendString(legacy, f)
	}
	legacy = wire.AppendUvarint(legacy, 4)
	wal, err := os.OpenFile(s.walPath(0), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write(wire.AppendFrame(nil, Magic, FormatVersion, kindRecord, legacy)); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	want = append(want, Record{Op: OpPut, IAgent: "ia-1", Agent: "agent-9", Node: "node-2", HashVersion: 4})

	reg := metrics.New()
	s2 := openStore(t, dir, reg)
	got, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 0 || len(got.Sections) != 0 {
		t.Fatalf("unexpected full state: gen %d, %d sections", got.Generation, len(got.Sections))
	}
	if len(got.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got.Records), len(want))
	}
	for i, r := range want {
		if !reflect.DeepEqual(got.Records[i], r) {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], r)
		}
	}
	if v := reg.Counter("agentloc_recovery_replayed_entries_total").Value(); v != uint64(len(want)) {
		t.Fatalf("replayed counter = %d, want %d", v, len(want))
	}
}

func TestFullSnapshotRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	s.Append(rec(1))
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen1")}}); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	s.Append(rec(2))
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen2")}}); err != nil {
		t.Fatal(err)
	}
	s.Append(rec(3))

	got, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 2 {
		t.Fatalf("recovered generation %d, want 2", got.Generation)
	}
	if len(got.Sections) != 1 || string(got.Sections[0].Payload) != "gen2" {
		t.Fatalf("sections = %+v", got.Sections)
	}
	// The post-rotation record replays, and so does the previous
	// generation's WAL: the gen-2 sections were dumped while wal-1 was
	// still live, so its tail may postdate them. wal-0 is out of range.
	if len(got.Records) != 2 || got.Records[0].Agent != "agent-2" || got.Records[1].Agent != "agent-3" {
		t.Fatalf("records = %+v", got.Records)
	}

	// A third full snapshot prunes generation ≤ 1; generation 2 survives as
	// the fallback.
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen3")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.fullPath(1)); !os.IsNotExist(err) {
		t.Fatalf("full-1 not pruned: %v", err)
	}
	if _, err := os.Stat(s.fullPath(2)); err != nil {
		t.Fatalf("full-2 (fallback) missing: %v", err)
	}
}

// TestCorruptNewestFallback: when the newest full snapshot is corrupt,
// recovery falls back to the previous generation and replays both WALs, so
// no acknowledged update is lost.
func TestCorruptNewestFallback(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := openStore(t, dir, reg)
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen1")}}); err != nil {
		t.Fatal(err)
	}
	s.Append(rec(1)) // lands in wal-1
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen2")}}); err != nil {
		t.Fatal(err)
	}
	s.Append(rec(2)) // lands in wal-2
	s.Close()

	data, err := os.ReadFile(s.fullPath(2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(s.fullPath(2), data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := openStore(t, dir, reg).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 || string(got.Sections[0].Payload) != "gen1" {
		t.Fatalf("fell back to gen %d (%+v), want 1/gen1", got.Generation, got.Sections)
	}
	if len(got.Records) != 2 {
		t.Fatalf("replayed %d records, want 2 (both WAL generations)", len(got.Records))
	}
	if got.Records[0].Agent != "agent-1" || got.Records[1].Agent != "agent-2" {
		t.Fatalf("records out of order: %+v", got.Records)
	}
	if v := reg.Counter("agentloc_snapshot_errors_total", "reason", "corrupt_full").Value(); v != 1 {
		t.Fatalf("corrupt_full counter = %d, want 1", v)
	}
}

// TestFallbackKeepsPreviousWAL: a full snapshot must not prune the WAL its
// fallback replays. When full-2 is corrupt, recovery starts from full-1,
// whose sections were dumped while wal-0 was live, so wal-0's tail — here
// agent-0, acknowledged after full-1's dump began — must still be on disk.
func TestFallbackKeepsPreviousWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	s.Append(rec(0)) // lands in wal-0
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen1")}}); err != nil {
		t.Fatal(err)
	}
	s.Append(rec(1)) // lands in wal-1
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen2")}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	data, err := os.ReadFile(s.fullPath(2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(s.fullPath(2), data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := openStore(t, dir, nil).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 {
		t.Fatalf("fell back to gen %d, want 1", got.Generation)
	}
	if len(got.Records) != 2 || got.Records[0].Agent != "agent-0" || got.Records[1].Agent != "agent-1" {
		t.Fatalf("records = %+v, want agent-0 then agent-1", got.Records)
	}
}

// TestTornFullWrite simulates a crash between writing the temp file and the
// rename: the orphan .tmp must be discarded on open, and recovery must use
// the previous snapshot plus the WAL tail.
func TestTornFullWrite(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, nil)
	if err := s.WriteFull([]Section{{Kind: 1, Name: "h", Payload: []byte("gen1")}}); err != nil {
		t.Fatal(err)
	}
	s.Append(rec(7))
	s.Close()

	// Crash mid-WriteFull: a partial temp file exists, the rename never ran.
	torn := s.fullPath(2) + ".tmp"
	if err := os.WriteFile(torn, []byte("partial full snapshot bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, nil)
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn temp file survived open: %v", err)
	}
	got, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 || len(got.Records) != 1 || got.Records[0].Agent != "agent-7" {
		t.Fatalf("recovered gen %d with records %+v", got.Generation, got.Records)
	}
}

// TestTornWALTail cuts the WAL mid-frame (a crash during an append) and
// checks every record before the tear survives.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := openStore(t, dir, reg)
	for i := 1; i <= 5; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := s.walPath(0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep four intact records plus a ragged piece of the fifth.
	cut := len(data) - len(data)/5/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := openStore(t, dir, reg).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got.Records))
	}
	if v := reg.Counter("agentloc_snapshot_errors_total", "reason", "wal_tail").Value(); v != 1 {
		t.Fatalf("wal_tail counter = %d, want 1", v)
	}
}

// TestAppendBatchMatchesAppends: a batch leaves exactly the bytes its records
// would leave appended one by one, and counts one WAL write per record.
func TestAppendBatchMatchesAppends(t *testing.T) {
	recs := []Record{rec(1), rec(2), {Op: OpDelete, IAgent: "ia-1", Agent: "agent-1", HashVersion: 3}, rec(4)}
	oneByOne := openStore(t, t.TempDir(), nil)
	for _, r := range recs {
		if err := oneByOne.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.New()
	batched := openStore(t, t.TempDir(), reg)
	if err := batched.AppendBatch(recs[:3]); err != nil {
		t.Fatal(err)
	}
	if err := batched.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := batched.AppendBatch(recs[3:]); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(oneByOne.walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(batched.walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batched WAL is %d bytes, one-by-one WAL %d, and they differ", len(got), len(want))
	}
	if v := reg.Counter("agentloc_snapshot_writes_total", "kind", "wal").Value(); v != uint64(len(recs)) {
		t.Fatalf("wal writes counter = %d, want one per record (%d)", v, len(recs))
	}
}

// TestWALCountersCountWhatTheyName: three appends of five records under
// SyncOnAppend are 15 records, 3 write calls and 3 fsyncs; a Sync adds one
// fsync and nothing else.
func TestWALCountersCountWhatTheyName(t *testing.T) {
	reg := metrics.New()
	s := openStore(t, t.TempDir(), reg)
	s.SyncOnAppend = true
	for batch := 0; batch < 3; batch++ {
		recs := make([]Record, 5)
		for i := range recs {
			recs[i] = rec(batch*5 + i)
		}
		if err := s.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	read := func() (records, appends, syncs uint64) {
		return reg.Counter("agentloc_snapshot_writes_total", "kind", "wal").Value(),
			reg.Counter("agentloc_snapshot_wal_appends_total").Value(),
			reg.Counter("agentloc_snapshot_wal_syncs_total").Value()
	}
	if records, appends, syncs := read(); records != 15 || appends != 3 || syncs != 3 {
		t.Fatalf("records/appends/syncs = %d/%d/%d, want 15/3/3", records, appends, syncs)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if records, appends, syncs := read(); records != 15 || appends != 3 || syncs != 4 {
		t.Fatalf("after Sync: records/appends/syncs = %d/%d/%d, want 15/3/4", records, appends, syncs)
	}
}

// TestLogKeepsTheStreamInSegments: a Log holds what it was given past the
// skipped records, byte for byte and in order, in segments of at most
// logSegBytes unless one record is longer, which gets a segment of its own.
func TestLogKeepsTheStreamInSegments(t *testing.T) {
	var stream []byte
	for i := range 10_000 {
		stream = AppendStream(stream, rec(i))
	}
	long := rec(10_000)
	long.Caps = []string{strings.Repeat("x", logSegBytes)}
	stream = AppendStream(stream, long)
	stream = AppendStream(stream, rec(10_001))
	var l Log
	if n := l.Append(stream[:0], 0); n != 0 {
		t.Fatalf("an empty stream added %d records", n)
	}
	first := AppendStream(nil, rec(0))
	if n := l.Append(stream, 1); n != 10_001 || l.Len() != 10_001 {
		t.Fatalf("added %d, holds %d; want 10001 past the one skipped", n, l.Len())
	}
	var held []byte
	for _, seg := range l.Segments() {
		if len(seg) > logSegBytes && len(seg) != len(AppendStream(nil, long)) {
			t.Errorf("a %d-byte segment holds more than one record", len(seg))
		}
		held = append(held, seg...)
	}
	if !bytes.Equal(held, stream[len(first):]) {
		t.Fatalf("the log holds %d bytes that differ from the %d given", len(held), len(stream)-len(first))
	}
}

// TestTornWALBatch cuts the WAL in the middle of a batch — the crash lands
// during the batch's one write, before anything in it was acknowledged — and
// checks that recovery keeps the earlier batch whole and the intact prefix of
// the torn one, and asks for nothing past the tear.
func TestTornWALBatch(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := openStore(t, dir, reg)
	if err := s.AppendBatch([]Record{rec(1), rec(2), rec(3)}); err != nil {
		t.Fatal(err)
	}
	acked, err := os.ReadFile(s.walPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch([]Record{rec(4), rec(5), rec(6), rec(7)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := s.walPath(0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two records of the second batch survive whole, the third is ragged.
	perRec := (len(data) - len(acked)) / 4
	cut := len(acked) + 2*perRec + perRec/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := openStore(t, dir, reg).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 5 {
		t.Fatalf("replayed %d records, want the 3 acknowledged plus the torn batch's 2 intact", len(got.Records))
	}
	for i, r := range got.Records {
		if !reflect.DeepEqual(r, rec(i+1)) {
			t.Fatalf("record %d = %+v, want %+v", i, r, rec(i+1))
		}
	}
	if v := reg.Counter("agentloc_snapshot_errors_total", "reason", "wal_tail").Value(); v != 1 {
		t.Fatalf("wal_tail counter = %d, want 1", v)
	}
}

func TestDeltaOrderAndCorruptStop(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := openStore(t, dir, reg)
	for i := 1; i <= 3; i++ {
		if err := s.AppendDelta(Section{Kind: 2, Name: fmt.Sprintf("ia-%d", i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the middle delta; recovery must stop before it, keeping only
	// the first (later deltas may depend on the lost one).
	path := s.deltaPath(0, 2)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	got, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Deltas) != 1 || got.Deltas[0].Name != "ia-1" {
		t.Fatalf("deltas = %+v, want only ia-1", got.Deltas)
	}
	if v := reg.Counter("agentloc_snapshot_errors_total", "reason", "corrupt_delta").Value(); v != 1 {
		t.Fatalf("corrupt_delta counter = %d, want 1", v)
	}

	// Delta sequence numbering resumes past existing files on reopen.
	s.Close()
	s2 := openStore(t, dir, nil)
	if err := s2.AppendDelta(Section{Kind: 2, Name: "ia-4", Payload: nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s2.deltaPath(0, 4)); err != nil {
		t.Fatalf("reopened store overwrote delta sequence: %v", err)
	}
}

// TestSectionRoundTrip pins the section codec, including empty payloads, and
// the record codec with and without each of its trailing optional fields.
func TestSectionRoundTrip(t *testing.T) {
	for _, r := range []Record{
		rec(5),
		{Op: OpPut, IAgent: "ia-2", Agent: "agent-5", Node: "n", HashVersion: 9, Caps: []string{"gpu"}},
		{Op: OpDelete, IAgent: "ia-2", Agent: "agent-5", HashVersion: 10},
		{Op: OpPut, Agent: "agent-6", Node: "n", Handle: "res@x"},
		{Op: OpPut, Agent: "agent-7", Node: "n", Load: 1 << 40},
		{Op: OpPut, IAgent: "ia-3", Agent: "agent-8", Node: "n", HashVersion: 2, Caps: []string{"gpu", "ocr"}, Handle: "res@y", Load: 7},
	} {
		got, err := DecodeRecord(AppendRecord(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip %+v → %+v", r, got)
		}
	}
	for _, sec := range []Section{
		{Kind: 1, Name: "hagent", Payload: []byte("state")},
		{Kind: 9, Name: "", Payload: nil},
	} {
		got, err := decodeSection(appendSection(nil, sec))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != sec.Kind || got.Name != sec.Name || !bytes.Equal(got.Payload, sec.Payload) {
			t.Fatalf("round trip %+v → %+v", sec, got)
		}
	}
}

// TestRecordBytesPredateHandleAndLoad: a record that sets neither Handle nor
// Load encodes to the bytes the build before those fields wrote (the hex is
// that build's), so every WAL written before them decodes and re-encodes
// unchanged.
func TestRecordBytesPredateHandleAndLoad(t *testing.T) {
	for _, tc := range []struct {
		rec Record
		hex string
	}{
		{Record{Op: OpPut, IAgent: "iagent-1", Agent: "agent-7", Node: "node-2", HashVersion: 300}, "0108696167656e742d31076167656e742d37066e6f64652d32ac02"},
		{Record{Op: OpPut, IAgent: "iagent-1", Agent: "agent-8", Node: "node-0", HashVersion: 4, Caps: []string{"gpu", "ocr"}}, "0108696167656e742d31076167656e742d38066e6f64652d30040203677075036f6372"},
		{Record{Op: OpDelete, IAgent: "iagent-12", Agent: "gone", HashVersion: 9}, "0209696167656e742d313204676f6e650009"},
	} {
		old, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRecord(nil, tc.rec); !bytes.Equal(got, old) {
			t.Errorf("%+v encodes to %x, the older build wrote %s", tc.rec, got, tc.hex)
		}
		back, err := DecodeRecord(old)
		if err != nil || !reflect.DeepEqual(back, tc.rec) {
			t.Errorf("%s decodes to %+v (%v), want %+v", tc.hex, back, err, tc.rec)
		}
	}
}

// FuzzRecover feeds arbitrary bytes in as snapshot, delta and WAL files:
// recovery must never panic and never fail — corrupt stores recover to
// (possibly empty) valid state.
func FuzzRecover(f *testing.F) {
	var full []byte
	{
		payload := wire.AppendUvarint(nil, 1)
		payload = wire.AppendUvarint(payload, 0)
		full = wire.AppendFrame(nil, Magic, FormatVersion, kindHeader, payload)
		full = wire.AppendFrame(full, Magic, FormatVersion, kindEnd, wire.AppendUvarint(nil, 0))
	}
	wal := wire.AppendFrame(nil, Magic, FormatVersion, kindRecord, AppendRecord(nil, Record{Op: OpPut, IAgent: "i", Agent: "a", Node: "n"}))
	capWAL := wire.AppendFrame(wal, Magic, FormatVersion, kindRecord, AppendRecord(nil, Record{Op: OpPut, IAgent: "i", Agent: "b", Node: "n", Caps: []string{"gpu", "ocr"}}))
	f.Add(full, wal)
	f.Add([]byte("garbage"), []byte{})
	f.Add(full[:len(full)/2], wal[:len(wal)-1])
	f.Add([]byte{}, wire.AppendFrame(nil, Magic, FormatVersion+1, kindRecord, nil))
	f.Add(full, capWAL)
	f.Add(full, wire.AppendFrame(capWAL, Magic, FormatVersion, kindRecord, AppendRecord(nil, Record{Op: OpPut, IAgent: "i", Agent: "c", Node: "n", Caps: []string{"gpu"}, Handle: "res@x", Load: 3})))
	f.Fuzz(func(t *testing.T, fullBytes, walBytes []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "full-00000001.snap"), fullBytes, 0o644); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), walBytes, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer s.Close()
		got, err := s.Recover()
		if err != nil {
			t.Fatalf("recover must not fail on corrupt data: %v", err)
		}
		// Whatever survived must be usable: a follow-up full write and
		// recovery round-trips.
		if err := s.WriteFull(got.Sections); err != nil {
			t.Fatalf("write full after recover: %v", err)
		}
		again, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Sections) != len(got.Sections) {
			t.Fatalf("re-recover lost sections: %d != %d", len(again.Sections), len(got.Sections))
		}
	})
}
