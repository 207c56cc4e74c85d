// Package snapshot is the durability layer of a location node: a per-node
// write-ahead log of location updates plus periodic full and incremental
// (delta) snapshots, all in the framed wire format with magic, format
// version and CRC per frame.
//
// On disk a store is one directory per node:
//
//	full-<gen>.snap      full snapshot: header, section frames, end frame
//	delta-<gen>-<n>.snap one incremental section (an agent's state at birth or
//	                     after a rehash)
//	wal-<gen>.log        append-only record log for that generation
//
// Every full snapshot starts a new generation: the full file is written to
// a temp name, fsynced and renamed into place (then the directory is
// fsynced), the WAL rotates to the new generation, and full and delta files
// older than the previous generation are pruned, WALs one generation later.
// Recovery walks generations newest-first, takes the newest full snapshot
// that validates, applies that generation's deltas in order, then replays
// every WAL from one generation before it onward (the snapshot's contents
// were dumped while the previous WAL was still live) — so even when the
// newest full snapshot is torn or corrupt, no acknowledged update is lost:
// it still lives in a surviving WAL.
//
// The package is deliberately string-keyed (no ids/platform imports) so the
// platform layer can hand a *Store to agents without an import cycle; the
// core layer owns the meaning of section kinds and record fields.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"agentloc/internal/metrics"
	"agentloc/internal/wire"
)

// Magic identifies every snapshot-store frame (full, delta and WAL files).
var Magic = [4]byte{'A', 'S', 'N', 'P'}

// FormatVersion is the current store format version.
const FormatVersion = 1

// Frame kinds within the store's files.
const (
	kindHeader  byte = 1 // full file: uvarint generation, uvarint section count
	kindSection byte = 2 // full file: one encoded Section
	kindEnd     byte = 3 // full file: uvarint section count (again)
	kindDelta   byte = 4 // delta file: one encoded Section
	kindRecord  byte = 5 // WAL: one encoded Record
)

// Record operations.
const (
	OpPut    byte = 1
	OpDelete byte = 2
)

// Record is one agent as a leaf holds it: one durable location update,
// appended to the WAL before the update is acknowledged, and the unit of the
// record streams the core layer writes a leaf's whole state as.
type Record struct {
	Op          byte   // OpPut or OpDelete
	IAgent      string // id of the IAgent that owns the entry
	Agent       string // mobile agent id
	Node        string // agent's node (empty for deletes)
	HashVersion uint64 // hash-tree version the update was applied under
	// Caps, Handle and Load are optional trailing fields, in that order: a
	// record that sets none of them encodes as records did before they
	// existed, and one written before them decodes with them empty.
	//
	// Caps is the agent's capability set. On an OpPut a non-empty set
	// replaces the agent's and an empty one leaves it unchanged; an OpDelete
	// removes it.
	Caps []string
	// Handle is the residence handle the agent is bound to at Node; empty
	// means unbound.
	Handle string
	// Load is the agent's request count. The WAL leaves it 0: load is
	// statistics, not a logged change.
	Load uint64
}

// Section is one named blob inside a full or delta snapshot. The core layer
// defines the kinds (HAgent state, IAgent state) and the
// payload encodings; the store treats payloads as opaque bytes under CRC.
type Section struct {
	Kind    byte
	Name    string
	Payload []byte
}

// Recovered is the result of Store.Recover.
type Recovered struct {
	// Generation of the full snapshot recovery started from (0 when no
	// valid full snapshot existed).
	Generation uint64
	// Sections of the newest valid full snapshot, in written order.
	Sections []Section
	// Deltas of that generation that validated, in append order.
	Deltas []Section
	// Records replayed from every WAL at or after Generation-1, in order.
	Records []Record
}

// Empty reports whether recovery found no durable state at all.
func (r *Recovered) Empty() bool {
	return r == nil || (len(r.Sections) == 0 && len(r.Deltas) == 0 && len(r.Records) == 0)
}

// Store is a node's durable state directory. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	// SyncOnAppend fsyncs the WAL after every Append. Off by default:
	// appends are crash-consistent to the last OS flush, and the
	// persister's periodic Sync bounds the window.
	SyncOnAppend bool

	mu       sync.Mutex
	gen      uint64 // generation receiving WAL appends and deltas
	deltaSeq uint64 // next delta index within gen
	wal      *os.File

	errorsTotal   func(reason string) *metrics.Counter
	replayedTotal *metrics.Counter
	writesTotal   func(kind string) *metrics.Counter
	walWrites     *metrics.Counter // writesTotal("wal"), looked up once: it counts per record
	walAppends    *metrics.Counter // one per AppendEach write call
	walSyncs      *metrics.Counter // one per WAL fsync
}

// Open opens (creating if necessary) the store rooted at dir. Leftover
// temp files from torn writes are removed; the append generation resumes
// after the highest generation present so new files never collide with
// old ones. reg may be nil.
func Open(dir string, reg *metrics.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: open %s: %w", dir, err)
	}
	reg.Describe("agentloc_snapshot_errors_total", "Snapshot store errors by reason (corrupt_full, corrupt_delta, wal_tail, write).")
	reg.Describe("agentloc_recovery_replayed_entries_total", "WAL records replayed during cold-start recovery.")
	reg.Describe("agentloc_snapshot_writes_total", "Durable writes by kind: full and delta count files, wal counts records appended.")
	reg.Describe("agentloc_snapshot_wal_appends_total", "WAL write calls: one per appended batch of records.")
	reg.Describe("agentloc_snapshot_wal_syncs_total", "WAL fsyncs made by appends under SyncOnAppend and by Sync (the barriers before a delta and at rotation aside).")
	s := &Store{
		dir: dir,
		errorsTotal: func(reason string) *metrics.Counter {
			return reg.Counter("agentloc_snapshot_errors_total", "reason", reason)
		},
		replayedTotal: reg.Counter("agentloc_recovery_replayed_entries_total"),
		writesTotal: func(kind string) *metrics.Counter {
			return reg.Counter("agentloc_snapshot_writes_total", "kind", kind)
		},
		walAppends: reg.Counter("agentloc_snapshot_wal_appends_total"),
		walSyncs:   reg.Counter("agentloc_snapshot_wal_syncs_total"),
	}
	s.walWrites = s.writesTotal("wal")
	files, err := s.scan()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if f.temp {
			os.Remove(f.path) // torn write: the rename never happened
			continue
		}
		if f.gen > s.gen {
			s.gen = f.gen
		}
	}
	for _, f := range files {
		if !f.temp && f.kind == kindDelta && f.gen == s.gen && f.seq >= s.deltaSeq {
			s.deltaSeq = f.seq + 1
		}
	}
	if s.deltaSeq == 0 {
		s.deltaSeq = 1
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the generation currently receiving appends.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Append writes one record to the WAL. The caller acks the corresponding
// update only after Append returns.
func (s *Store) Append(rec Record) error {
	return s.AppendBatch([]Record{rec})
}

// AppendBatch writes the records to the WAL as consecutive record frames —
// the same bytes len(recs) Appends would leave — with one write and, under
// SyncOnAppend, one fsync. The caller acks the corresponding updates only
// after AppendBatch returns; a crash mid-write leaves an intact prefix of the
// batch, none of it acknowledged.
func (s *Store) AppendBatch(recs []Record) error {
	return s.AppendEach(len(recs), func(i int) Record { return recs[i] })
}

// AppendEach is AppendBatch for n records that rec hands out one at a time,
// in order, so a caller writing many needs no slice of them.
func (s *Store) AppendEach(n int, rec func(i int) Record) error {
	if n == 0 {
		return nil
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	for i := range n {
		var start int
		*buf, start = wire.BeginFrame(*buf, Magic, FormatVersion, kindRecord)
		*buf = wire.EndFrame(AppendRecord(*buf, rec(i)), start)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		f, err := os.OpenFile(s.walPath(s.gen), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			s.errorsTotal("write").Inc()
			return fmt.Errorf("snapshot: wal open: %w", err)
		}
		s.wal = f
	}
	if _, err := s.wal.Write(*buf); err != nil {
		s.errorsTotal("write").Inc()
		return fmt.Errorf("snapshot: wal append: %w", err)
	}
	s.walAppends.Inc()
	if s.SyncOnAppend {
		if err := s.syncWAL(); err != nil {
			return err
		}
	}
	s.walWrites.Add(uint64(n))
	return nil
}

// Sync fsyncs the WAL, bounding how much acknowledged state a power loss
// can cost when SyncOnAppend is off.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.syncWAL()
}

// syncWAL fsyncs the open WAL and counts it. Caller holds mu.
func (s *Store) syncWAL() error {
	if err := s.wal.Sync(); err != nil {
		s.errorsTotal("write").Inc()
		return fmt.Errorf("snapshot: wal sync: %w", err)
	}
	s.walSyncs.Inc()
	return nil
}

// AppendDelta durably writes one incremental section (atomically: temp
// file, fsync, rename, directory fsync). The WAL is fsynced first: a delta
// summarizes state as of its write time, and recovery applies WAL records
// on top of deltas, so every record older than the delta must survive any
// crash the delta survives — otherwise a torn WAL tail could roll a key
// back past the delta's value.
func (s *Store) AppendDelta(sec Section) error {
	data := wire.AppendFrame(nil, Magic, FormatVersion, kindDelta, appendSection(nil, sec))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.Sync(); err != nil {
			s.errorsTotal("write").Inc()
			return fmt.Errorf("snapshot: delta wal sync: %w", err)
		}
	}
	path := s.deltaPath(s.gen, s.deltaSeq)
	if err := s.atomicWrite(path, data); err != nil {
		s.errorsTotal("write").Inc()
		return fmt.Errorf("snapshot: delta: %w", err)
	}
	s.deltaSeq++
	s.writesTotal("delta").Inc()
	return nil
}

// WriteFull durably writes a full snapshot, starting a new generation: the
// WAL rotates, the delta sequence resets, and files recovery can no longer
// reach are pruned (one full generation is always kept as fallback, with
// every WAL it replays).
func (s *Store) WriteFull(sections []Section) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	newGen := s.gen + 1

	payload := wire.AppendUvarint(nil, newGen)
	payload = wire.AppendUvarint(payload, uint64(len(sections)))
	data := wire.AppendFrame(nil, Magic, FormatVersion, kindHeader, payload)
	for _, sec := range sections {
		data = wire.AppendFrame(data, Magic, FormatVersion, kindSection, appendSection(nil, sec))
	}
	data = wire.AppendFrame(data, Magic, FormatVersion, kindEnd, wire.AppendUvarint(nil, uint64(len(sections))))

	if err := s.atomicWrite(s.fullPath(newGen), data); err != nil {
		s.errorsTotal("write").Inc()
		return fmt.Errorf("snapshot: full: %w", err)
	}

	// Rotate the WAL: future appends belong to the new generation. The old
	// WAL is fsynced on the way out — recovery from the new full snapshot
	// still replays it (the snapshot's sections were dumped before the
	// rotation, so late records of the old generation postdate them).
	if s.wal != nil {
		s.wal.Sync()
		s.wal.Close()
		s.wal = nil
	}
	s.gen = newGen
	s.deltaSeq = 1
	s.writesTotal("full").Inc()
	s.prune(newGen)
	return nil
}

// Recover loads the newest durable state: the latest valid full snapshot,
// its generation's deltas, and every WAL record at or after that
// generation. A torn or corrupt newest snapshot falls back to the previous
// generation; a torn WAL tail is cut at the last intact record. Recover
// never fails on corrupt data — worst case it returns an empty Recovered —
// only on I/O errors reading the directory.
func (s *Store) Recover() (*Recovered, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	files, err := s.scan()
	if err != nil {
		return nil, err
	}

	var fulls []fileInfo
	deltas := map[uint64][]fileInfo{}
	wals := map[uint64]string{}
	for _, f := range files {
		if f.temp {
			continue
		}
		switch f.kind {
		case kindHeader:
			fulls = append(fulls, f)
		case kindDelta:
			deltas[f.gen] = append(deltas[f.gen], f)
		case kindRecord:
			wals[f.gen] = f.path
		}
	}
	sort.Slice(fulls, func(i, j int) bool { return fulls[i].gen > fulls[j].gen })

	out := &Recovered{}
	for _, f := range fulls {
		sections, err := s.loadFull(f.path, f.gen)
		if err != nil {
			s.errorsTotal("corrupt_full").Inc()
			continue
		}
		out.Generation = f.gen
		out.Sections = sections
		break
	}

	gen := out.Generation
	ds := deltas[gen]
	sort.Slice(ds, func(i, j int) bool { return ds[i].seq < ds[j].seq })
	for _, d := range ds {
		sec, err := s.loadDelta(d.path)
		if err != nil {
			// Later deltas may depend on this one's state; stop here and
			// let WAL replay cover the rest.
			s.errorsTotal("corrupt_delta").Inc()
			break
		}
		out.Deltas = append(out.Deltas, sec)
	}

	// Replay WALs from one generation before the recovered snapshot: the
	// snapshot's sections were dumped while the previous generation's WAL
	// was still live, so its tail can hold acknowledged records the
	// sections miss. Over-replay is harmless — records carry absolute
	// values and the last record per key wins, so a WAL's stale prefix is
	// always superseded by its own later records or the next WAL's.
	var gens []uint64
	for g := range wals {
		if g+1 >= gen {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for _, g := range gens {
		recs := s.loadWAL(wals[g])
		out.Records = append(out.Records, recs...)
	}
	s.replayedTotal.Add(uint64(len(out.Records)))
	return out, nil
}

// Close closes the WAL (after a final fsync).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	s.wal.Sync()
	err := s.wal.Close()
	s.wal = nil
	return err
}

// ---------------------------------------------------------------------------
// Encoding

// AppendRecord appends rec's encoding to dst. A trailing optional field is
// written only when it or a field after it is set.
func AppendRecord(dst []byte, rec Record) []byte {
	dst = append(dst, rec.Op)
	dst = wire.AppendString(dst, rec.IAgent)
	dst = wire.AppendString(dst, rec.Agent)
	dst = wire.AppendString(dst, rec.Node)
	dst = wire.AppendUvarint(dst, rec.HashVersion)
	if len(rec.Caps) == 0 && rec.Handle == "" && rec.Load == 0 {
		return dst
	}
	dst = wire.AppendUvarint(dst, uint64(len(rec.Caps)))
	for _, c := range rec.Caps {
		dst = wire.AppendString(dst, c)
	}
	if rec.Handle == "" && rec.Load == 0 {
		return dst
	}
	dst = wire.AppendString(dst, rec.Handle)
	if rec.Load == 0 {
		return dst
	}
	return wire.AppendUvarint(dst, rec.Load)
}

// DecodeRecord decodes one AppendRecord encoding, which must fill payload
// exactly. Errors are wire-typed.
func DecodeRecord(payload []byte) (Record, error) {
	var rec Record
	err := decodeRecord(wire.NewDec(payload), &rec, false, nil)
	return rec, err
}

// ViewRecord is DecodeRecord into rec without copying: rec.Agent is a view of
// payload, valid only while payload stays unchanged; the other strings are
// views too when in is nil, else they come through in. rec.Caps reuses its
// array, so a decode allocates nothing once the array and in have grown.
func ViewRecord(payload []byte, rec *Record, in *wire.Interner) error {
	*rec = Record{Caps: rec.Caps[:0]}
	return decodeRecord(wire.NewDec(payload), rec, true, in)
}

func decodeRecord(d *wire.Dec, rec *Record, view bool, in *wire.Interner) error {
	str := func(in *wire.Interner) (string, error) {
		switch {
		case in != nil:
			return d.StringIn(wire.MaxIDLen, in)
		case view:
			return d.View(wire.MaxIDLen)
		}
		return d.String(wire.MaxIDLen)
	}
	var err error
	if rec.Op, err = d.Byte(); err != nil {
		return err
	}
	if rec.Op != OpPut && rec.Op != OpDelete {
		return fmt.Errorf("%w: unknown record op %d", wire.ErrCorrupt, rec.Op)
	}
	if rec.IAgent, err = str(in); err != nil {
		return err
	}
	if rec.Agent, err = str(nil); err != nil {
		return err
	}
	if rec.Node, err = str(in); err != nil {
		return err
	}
	if rec.HashVersion, err = d.Uvarint(); err != nil {
		return err
	}
	if d.Remaining() == 0 {
		return nil
	}
	n, err := d.Uvarint()
	if err != nil {
		return err
	}
	if n > uint64(d.Remaining()) {
		return fmt.Errorf("%w: impossible capability count %d", wire.ErrCorrupt, n)
	}
	for i := uint64(0); i < n; i++ {
		c, err := str(in)
		if err != nil {
			return err
		}
		rec.Caps = append(rec.Caps, c)
	}
	if d.Remaining() == 0 {
		return nil
	}
	if rec.Handle, err = str(in); err != nil {
		return err
	}
	if d.Remaining() == 0 {
		return nil
	}
	if rec.Load, err = d.Uvarint(); err != nil {
		return err
	}
	return d.Done()
}

// AppendStream appends rec to a record stream: its encoding behind its
// uvarint length.
func AppendStream(dst []byte, rec Record) []byte {
	var buf [256]byte // most records fit, and then cost no allocation
	return wire.AppendBytes(dst, AppendRecord(buf[:0], rec))
}

// logSegBytes bounds a Log segment that holds more than one record.
const logSegBytes = 64 << 10

// Log holds a record stream in memory, in segments of at most logSegBytes (a
// longer record gets one of its own), so that appending never copies what it
// holds. The zero Log is empty.
type Log struct {
	segs [][]byte
	n    int
}

// Len is the number of records held.
func (l Log) Len() int { return l.n }

// Segments returns the held segments, each a record stream of its own, for
// reading only.
func (l Log) Segments() [][]byte { return l.segs }

// Append copies the records of stream, whose records must be whole, past the
// first skip, and reports how many it copied.
func (l *Log) Append(stream []byte, skip uint64) int {
	added := 0
	for len(stream) > 0 {
		size, w := binary.Uvarint(stream)
		rec := stream[:w+int(size)]
		stream = stream[len(rec):]
		if skip > 0 {
			skip--
			continue
		}
		last := len(l.segs) - 1
		if last < 0 || len(l.segs[last])+len(rec) > cap(l.segs[last]) {
			l.segs = append(l.segs, make([]byte, 0, max(logSegBytes, len(rec))))
			last++
		}
		l.segs[last] = append(l.segs[last], rec...)
		added++
	}
	l.n += added
	return added
}

func appendSection(dst []byte, sec Section) []byte {
	dst = append(dst, sec.Kind)
	dst = wire.AppendString(dst, sec.Name)
	return wire.AppendBytes(dst, sec.Payload)
}

func decodeSection(payload []byte) (Section, error) {
	d := wire.NewDec(payload)
	var sec Section
	var err error
	if sec.Kind, err = d.Byte(); err != nil {
		return sec, err
	}
	if sec.Name, err = d.String(wire.MaxIDLen); err != nil {
		return sec, err
	}
	body, err := d.Bytes(wire.MaxFrameLen)
	if err != nil {
		return sec, err
	}
	sec.Payload = append([]byte(nil), body...)
	return sec, d.Done()
}

// ---------------------------------------------------------------------------
// File loading

// loadFull reads and fully validates one full snapshot file: header frame,
// the declared number of sections, and a matching end frame with nothing
// after it.
func (s *Store) loadFull(path string, wantGen uint64) ([]Section, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pos := 0
	next := func() (wire.Frame, error) {
		f, n, err := wire.DecodeFrame(data[pos:], Magic, FormatVersion)
		pos += n
		return f, err
	}
	head, err := next()
	if err != nil {
		return nil, err
	}
	if head.Kind != kindHeader {
		return nil, fmt.Errorf("%w: first frame kind %d", wire.ErrCorrupt, head.Kind)
	}
	d := wire.NewDec(head.Payload)
	gen, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	count, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if gen != wantGen {
		return nil, fmt.Errorf("%w: header generation %d in file for generation %d", wire.ErrCorrupt, gen, wantGen)
	}
	if count > uint64(len(data)) {
		return nil, fmt.Errorf("%w: impossible section count %d", wire.ErrCorrupt, count)
	}
	sections := make([]Section, 0, count)
	for i := uint64(0); i < count; i++ {
		f, err := next()
		if err != nil {
			return nil, err
		}
		if f.Kind != kindSection {
			return nil, fmt.Errorf("%w: frame kind %d where section expected", wire.ErrCorrupt, f.Kind)
		}
		sec, err := decodeSection(f.Payload)
		if err != nil {
			return nil, err
		}
		sections = append(sections, sec)
	}
	end, err := next()
	if err != nil {
		return nil, err
	}
	if end.Kind != kindEnd {
		return nil, fmt.Errorf("%w: frame kind %d where end expected", wire.ErrCorrupt, end.Kind)
	}
	endCount, err := wire.NewDec(end.Payload).Uvarint()
	if err != nil || endCount != count {
		return nil, fmt.Errorf("%w: end frame count %d, header said %d", wire.ErrCorrupt, endCount, count)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d bytes after end frame", wire.ErrCorrupt, len(data)-pos)
	}
	return sections, nil
}

func (s *Store) loadDelta(path string) (Section, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Section{}, err
	}
	f, n, err := wire.DecodeFrame(data, Magic, FormatVersion)
	if err != nil {
		return Section{}, err
	}
	if f.Kind != kindDelta || n != len(data) {
		return Section{}, fmt.Errorf("%w: malformed delta file", wire.ErrCorrupt)
	}
	return decodeSection(f.Payload)
}

// loadWAL replays one WAL file up to the first unreadable frame. A torn
// tail (the expected shape after a crash mid-append) is cut silently except
// for the wal_tail error metric; everything before it is kept.
func (s *Store) loadWAL(path string) []Record {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var recs []Record
	for {
		frame, err := wire.ReadFrame(f, Magic, FormatVersion)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			s.errorsTotal("wal_tail").Inc()
			return recs
		}
		if frame.Kind != kindRecord {
			s.errorsTotal("wal_tail").Inc()
			return recs
		}
		rec, err := DecodeRecord(frame.Payload)
		if err != nil {
			s.errorsTotal("wal_tail").Inc()
			return recs
		}
		recs = append(recs, rec)
	}
}

// ---------------------------------------------------------------------------
// Filesystem plumbing

type fileInfo struct {
	kind byte // kindHeader (full), kindDelta, kindRecord (wal)
	gen  uint64
	seq  uint64
	path string
	temp bool
}

func (s *Store) fullPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("full-%08d.snap", gen))
}

func (s *Store) deltaPath(gen, seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("delta-%08d-%06d.snap", gen, seq))
}

func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%08d.log", gen))
}

// scan lists the store directory, classifying recognized file names.
func (s *Store) scan() ([]fileInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: scan %s: %w", s.dir, err)
	}
	var out []fileInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		fi := fileInfo{path: filepath.Join(s.dir, name)}
		if strings.HasSuffix(name, ".tmp") {
			fi.temp = true
			out = append(out, fi)
			continue
		}
		switch {
		case matchName(name, "full-%08d.snap", &fi.gen):
			fi.kind = kindHeader
		case matchName2(name, "delta-%08d-%06d.snap", &fi.gen, &fi.seq):
			fi.kind = kindDelta
		case matchName(name, "wal-%08d.log", &fi.gen):
			fi.kind = kindRecord
		default:
			continue
		}
		out = append(out, fi)
	}
	return out, nil
}

func matchName(name, format string, gen *uint64) bool {
	_, err := fmt.Sscanf(name, format, gen)
	return err == nil
}

func matchName2(name, format string, gen, seq *uint64) bool {
	_, err := fmt.Sscanf(name, format, gen, seq)
	return err == nil
}

// atomicWrite writes data to path via a temp file: write, fsync, rename,
// fsync the directory. A crash at any point leaves either the old file, no
// file, or the complete new file — never a torn one under this name.
func (s *Store) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(s.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// prune removes what recovery can no longer reach: full and delta files more
// than one generation behind gen, keeping the previous generation intact as
// the recovery fallback, and WALs more than two behind — recovering from that
// fallback replays the WAL of the generation before it too.
func (s *Store) prune(gen uint64) {
	files, err := s.scan()
	if err != nil {
		return
	}
	for _, f := range files {
		reach := f.gen + 2
		if f.kind == kindRecord {
			reach++
		}
		if !f.temp && reach <= gen {
			os.Remove(f.path)
		}
	}
}
