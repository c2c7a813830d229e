package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/message"
)

// Record is one committed transaction in the write-ahead log.
type Record struct {
	Index  uint64
	Txn    message.TxnID
	Writes []message.KV
}

// ErrCorrupt is returned by replay when a record fails its checksum — or,
// in a segmented log, when a non-final segment is truncated (records are
// missing mid-log); the valid prefix before it has already been surfaced.
var ErrCorrupt = errors.New("wal: corrupt record")

// WAL is an append-only write-ahead log with per-record CRC32 checksums.
// The format is a simple length-prefixed binary encoding so recovery can
// stop cleanly at a torn tail.
//
// Two durability modes:
//
//   - Per-record (default): Append writes and syncs each record before
//     returning, so every acknowledged record is durable.
//   - Grouped (SetGrouped): Append only buffers the encoded record; Flush
//     writes the whole batch with one write and one sync. The commit
//     pipeline (internal/commitpipe) uses this for group commit, deferring
//     client acknowledgements until the batch's fsync.
//
// A WAL opened with OpenSegments additionally rotates across fixed-size
// segment files; records (and, in grouped mode, whole batches) never split
// across a segment boundary.
//
// A WAL does no locking. A grouped log may be driven from two goroutines
// under a fixed split of its state: the appending side (the site's event
// loop) owns the append buffer and its record count — Append, Detach,
// Recycle, Pending — and the writing side (the site's syncer) owns the
// writer, the segment state and rotation — WriteSync, one call at a time.
// A Batch travels from the first to the second and back. Everything else
// (Flush, Close, per-record Append) touches both halves and needs the log
// quiescent: no batch detached and not yet recycled. AppendedBytes is safe
// from any goroutine.
type WAL struct {
	w io.Writer
	// Sync is called after each durable write when non-nil (e.g.
	// (*os.File).Sync). OpenSegments manages it across rotations.
	Sync func() error
	buf  []byte

	grouped  bool
	pending  []byte // encoded records buffered since the last Detach
	pendingN int
	spare    []byte       // a recycled batch buffer, the append buffer after the next Detach
	appended atomic.Int64 // bytes written through write() over this WAL's lifetime

	seg    *segState // non-nil for segmented logs (OpenSegments)
	closer io.Closer // non-nil when the WAL owns its file (RecoverFile)
}

// Batch is the run of encoded records one Detach took out of a grouped
// log's append buffer. The zero Batch is empty.
type Batch struct {
	buf []byte
	n   int
}

// Records returns how many records the batch holds.
func (b Batch) Records() int { return b.n }

// segState tracks the active segment of a directory-backed log.
type segState struct {
	dir      string
	maxBytes int64
	f        *os.File
	size     int64
	n        int // current segment number (1-based)
}

// NewWAL creates a log that appends to w.
func NewWAL(w io.Writer) *WAL { return &WAL{w: w} }

// SetGrouped switches between per-record durability (false, the default)
// and group commit (true): appends buffer in memory until Flush writes and
// syncs them as one batch. Disabling grouping does not write buffered
// records; call Flush first.
func (l *WAL) SetGrouped(g bool) { l.grouped = g }

// Pending returns the number of records buffered and not yet flushed.
func (l *WAL) Pending() int { return l.pendingN }

// Append writes one record. In grouped mode the record is only buffered;
// durability (and any write error) arrives when its batch is written. The
// encode goes straight into the destination buffer, so an append allocates
// only when that buffer grows (TestAppendAllocs).
func (l *WAL) Append(r Record) error {
	if l.grouped {
		l.pending = appendRecord(l.pending, r)
		l.pendingN++
		return nil
	}
	l.buf = l.buf[:0]
	l.buf = appendRecord(l.buf, r)
	if err := l.write(l.buf); err != nil { //reprolint:allow nonblock per-record mode is durability on the calling thread by definition: the record is on disk when Append returns; callers that must not wait use grouped mode
		return err
	}
	return l.sync()
}

// Flush writes every buffered record with a single write followed by a
// single sync, returning how many records the batch held. A no-op (0, nil)
// when nothing is buffered.
func (l *WAL) Flush() (int, error) {
	if l.pendingN == 0 {
		return 0, nil
	}
	b := l.Detach()
	err := l.WriteSync(b)
	l.Recycle(b)
	return b.n, err
}

// Detach takes the buffered records out of the log as one batch, leaving
// the append buffer empty: a buffer swap, no copy. The batch is neither
// written nor durable until WriteSync; hand it back with Recycle afterwards
// so its buffer serves a later batch and steady-state flushing allocates
// nothing. Appending side.
func (l *WAL) Detach() Batch {
	b := Batch{buf: l.pending, n: l.pendingN}
	l.pending, l.spare = l.spare[:0], nil
	l.pendingN = 0
	return b
}

// WriteSync makes a detached batch durable: one write, rotating the
// segment first if the batch would overflow it, then one sync. Batches must
// be written in the order they were detached, one at a time. Writing side.
func (l *WAL) WriteSync(b Batch) error {
	if b.n == 0 {
		return nil
	}
	if err := l.write(b.buf); err != nil {
		return err
	}
	return l.sync()
}

// Recycle returns a written batch's buffer to the log. Appending side.
func (l *WAL) Recycle(b Batch) {
	if l.spare == nil {
		l.spare = b.buf[:0]
	}
}

// Close flushes buffered records and closes the backing file when the WAL
// owns one (OpenSegments, RecoverFile). Logs created with NewWAL only flush
// (the caller owns the writer).
func (l *WAL) Close() error {
	_, err := l.Flush()
	c := l.closer
	if l.seg != nil {
		c = l.seg.f
		l.seg = nil
	}
	if c != nil {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		l.w = nil
		l.Sync = nil
		l.closer = nil
	}
	return err
}

// write sends one encoded chunk (a record or a whole batch) to the backing
// writer, rotating the active segment first when the chunk would overflow
// it. Rotating before the write keeps records whole within a segment.
func (l *WAL) write(b []byte) error {
	if l.seg != nil {
		if l.seg.size > 0 && l.seg.size+int64(len(b)) > l.seg.maxBytes {
			if err := l.rotate(); err != nil {
				return err
			}
		}
		l.seg.size += int64(len(b))
	}
	l.appended.Add(int64(len(b)))
	_, err := l.w.Write(b)
	return err
}

// AppendedBytes returns the total bytes written to the log since this WAL
// was opened (buffered-but-unflushed records excluded). The checkpointer
// uses the delta since its last run as a bytes-since-checkpoint trigger.
func (l *WAL) AppendedBytes() int64 { return l.appended.Load() }

func (l *WAL) sync() error {
	if l.Sync != nil {
		return l.Sync()
	}
	return nil
}

// rotate syncs and closes the active segment and opens the next one.
func (l *WAL) rotate() error {
	s := l.seg
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.n++
	f, err := os.OpenFile(segmentPath(s.dir, s.n), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.f = f
	s.size = 0
	l.w = f
	l.Sync = f.Sync
	return nil
}

// DefaultSegmentBytes is the rotation threshold OpenSegments applies when
// given maxBytes <= 0.
const DefaultSegmentBytes = 64 << 20

// segmentPath names segment n inside dir.
func segmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.seg", n))
}

// SegmentFiles returns the log's segment files inside dir in append order.
func SegmentFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// IsSegmentDir reports whether path is a directory (a segmented log root,
// as opposed to a single-file log).
func IsSegmentDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// OpenSegments opens (creating if needed) a segmented log rooted at dir for
// appending, rotating to a new segment file once the active one exceeds
// maxBytes (DefaultSegmentBytes when <= 0). Appends continue on the highest
// existing segment.
func OpenSegments(dir string, maxBytes int64) (*WAL, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files, err := SegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	n := 1
	if len(files) > 0 {
		// Resume on the highest existing segment, tolerating numbering gaps
		// from manual pruning.
		last := filepath.Base(files[len(files)-1])
		if _, err := fmt.Sscanf(last, "wal-%06d.seg", &n); err != nil {
			return nil, fmt.Errorf("wal: bad segment name %q", last)
		}
	}
	f, err := os.OpenFile(segmentPath(dir, n), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l := NewWAL(f)
	l.Sync = f.Sync
	l.seg = &segState{dir: dir, maxBytes: maxBytes, f: f, size: fi.Size(), n: n}
	return l, nil
}

// ReplaySegments replays every segment of a directory-backed log in append
// order. A torn tail (clean EOF mid-record) is tolerated only in the final
// segment — that is the crash-mid-write the format is designed for. A short
// read in an earlier segment means records are missing mid-log and surfaces
// as ErrCorrupt, as does a checksum mismatch anywhere; either way the valid
// prefix has been delivered and replay stops.
func ReplaySegments(dir string, fn func(Record) error) error {
	_, _, err := replaySegments(dir, fn)
	return err
}

// replaySegments is ReplaySegments, additionally reporting the final
// segment's path and the byte offset where its valid record prefix ends, so
// recovery can truncate a torn tail before appending. lastPath is "" for an
// empty log.
func replaySegments(dir string, fn func(Record) error) (lastPath string, validOff int64, err error) {
	files, err := SegmentFiles(dir)
	if err != nil {
		return "", 0, err
	}
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", 0, err
		}
		off, rerr := ReplayPrefix(f, fn)
		var size int64
		if fi, serr := f.Stat(); serr == nil {
			size = fi.Size()
		} else if rerr == nil {
			rerr = serr
		}
		f.Close()
		if rerr == nil && off < size && i < len(files)-1 {
			rerr = fmt.Errorf("%w: torn record in non-final segment", ErrCorrupt)
		}
		if rerr != nil {
			return path, off, fmt.Errorf("%s: %w", path, rerr)
		}
		lastPath, validOff = path, off
	}
	return lastPath, validOff, nil
}

// ReplaySegmentsPrefix is ReplaySegments, additionally reporting the final
// segment's path and the byte offset where its valid record prefix ends.
// Recovery layers that replay only a log suffix (internal/checkpoint) use
// the pair with TruncateTail to chop a torn tail before reopening for
// append. lastPath is "" for an empty log.
func ReplaySegmentsPrefix(dir string, fn func(Record) error) (lastPath string, validOff int64, err error) {
	return replaySegments(dir, fn)
}

// TruncateTail chops a torn record tail off a log file, leaving the first
// off valid bytes. A no-op when the file is already no larger than off.
func TruncateTail(path string, off int64) error {
	return truncateTail(path, off)
}

// TruncateSegments deletes sealed (non-final) segment files whose every
// record has Index <= floor — they are fully covered by a checkpoint at
// that applied index and replay would skip all of them. The active (last)
// segment is never deleted, so OpenSegments still resumes on it. Returns
// the number of segments removed.
//
// A segment that fails to decode is left in place: truncation must never
// outrun what recovery can actually read, and the corrupt segment will
// surface on the next replay instead of being silently discarded.
func TruncateSegments(dir string, floor uint64) (int, error) {
	files, err := SegmentFiles(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, path := range files {
		if i == len(files)-1 {
			break // never the active segment
		}
		f, err := os.Open(path)
		if err != nil {
			return removed, err
		}
		maxIdx := uint64(0)
		off, rerr := ReplayPrefix(f, func(r Record) error {
			if r.Index > maxIdx {
				maxIdx = r.Index
			}
			return nil
		})
		var size int64
		if fi, serr := f.Stat(); serr == nil {
			size = fi.Size()
		}
		f.Close()
		if rerr != nil || off < size {
			// Undecodable or short mid-log segment: leave it for replay to
			// diagnose.
			break
		}
		if maxIdx > floor {
			break // later segments only hold higher indexes
		}
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// RecoverSegments rebuilds a store from a segmented log and reopens the log
// for appending, so a restarted replica resumes from its durable state. Any
// torn tail on the final segment is truncated before the log reopens. The
// returned store logs through the returned WAL.
func RecoverSegments(dir string, maxBytes int64) (*Store, *WAL, error) {
	s := New(nil) // do not re-log while replaying
	lastPath, validOff, err := replaySegments(dir, func(r Record) error {
		return s.Apply(r.Txn, r.Writes, r.Index)
	})
	if err != nil {
		return s, nil, err
	}
	if lastPath != "" {
		if err := truncateTail(lastPath, validOff); err != nil {
			return s, nil, err
		}
	}
	w, err := OpenSegments(dir, maxBytes)
	if err != nil {
		return s, nil, err
	}
	s.wal = w
	return s, w, nil
}

// truncateTail chops a torn record tail off a log file before it reopens
// for appending. Without this, post-restart appends land after the garbage
// bytes, and the next replay — which stops at the torn record — would
// silently discard every record written after the restart.
func truncateTail(path string, off int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() <= off {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Truncate(off)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recordHeader is the framing before each record body: the body's length,
// then its CRC32, both little-endian uint32.
const recordHeader = 8

// recordEncoder appends to b (a struct field, so the growth of the
// destination buffer is the one sanctioned allocation of the append path).
type recordEncoder struct{ b []byte }

// appendRecord appends r's framed encoding to b: the header's room is
// reserved first, the body is encoded in place behind it, and length and
// checksum are patched in once the body is complete.
//
// reprolint:noalloc
func appendRecord(b []byte, r Record) []byte {
	e := recordEncoder{b: b}
	hdr := len(e.b)
	e.b = append(e.b, 0, 0, 0, 0, 0, 0, 0, 0) // recordHeader bytes, patched below
	e.b = binary.LittleEndian.AppendUint64(e.b, r.Index)
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(r.Txn.Site))
	e.b = binary.LittleEndian.AppendUint64(e.b, r.Txn.Seq)
	e.b = binary.LittleEndian.AppendUint32(e.b, uint32(len(r.Writes)))
	for _, w := range r.Writes {
		e.b = binary.LittleEndian.AppendUint32(e.b, uint32(len(w.Key)))
		e.b = append(e.b, w.Key...)
		e.b = binary.LittleEndian.AppendUint32(e.b, uint32(len(w.Value)))
		e.b = append(e.b, w.Value...)
	}
	body := e.b[hdr+recordHeader:]
	binary.LittleEndian.PutUint32(e.b[hdr:], uint32(len(body)))
	binary.LittleEndian.PutUint32(e.b[hdr+4:], crc32.ChecksumIEEE(body))
	return e.b
}

func decodeBody(b []byte) (Record, error) {
	var r Record
	rd := reader{b: b}
	r.Index = rd.u64()
	r.Txn.Site = message.SiteID(rd.u32())
	r.Txn.Seq = rd.u64()
	n := int(rd.u32())
	if rd.err != nil || n < 0 || n > 1<<20 {
		return r, fmt.Errorf("%w: bad write count", ErrCorrupt)
	}
	r.Writes = make([]message.KV, 0, n)
	for i := 0; i < n; i++ {
		k := rd.bytes(int(rd.u32()))
		v := rd.bytes(int(rd.u32()))
		if rd.err != nil {
			return r, fmt.Errorf("%w: truncated write", ErrCorrupt)
		}
		r.Writes = append(r.Writes, message.KV{Key: message.Key(k), Value: append(message.Value(nil), v...)})
	}
	if rd.err != nil {
		return r, rd.err
	}
	return r, nil
}

type reader struct {
	b   []byte
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || n < 0 || len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Replay reads records from rd in order, invoking fn for each. A torn tail
// (clean EOF mid-record) ends replay without error; a checksum mismatch
// returns ErrCorrupt after the valid prefix was delivered.
func Replay(rd io.Reader, fn func(Record) error) error {
	_, err := ReplayPrefix(rd, fn)
	return err
}

// ReplayPrefix is Replay, additionally reporting the byte offset where the
// valid record prefix ends (the start of any torn tail or corrupt record).
// Recovery truncates the log there before appending again.
func ReplayPrefix(rd io.Reader, fn func(Record) error) (int64, error) {
	var off int64
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn or clean tail
			}
			return off, err
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size > 1<<28 {
			return off, fmt.Errorf("%w: implausible record size %d", ErrCorrupt, size)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(rd, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil // torn tail
			}
			return off, err
		}
		if crc32.ChecksumIEEE(body) != sum {
			return off, ErrCorrupt
		}
		rec, err := decodeBody(body)
		if err != nil {
			return off, err
		}
		off += int64(len(hdr)) + int64(size)
		if err := fn(rec); err != nil {
			return off, err
		}
	}
}

// Recover rebuilds a store from a log, returning the recovered store. It
// cannot truncate a torn tail (rd is just a reader); callers that will
// append to the same file afterwards must use RecoverFile instead.
func Recover(rd io.Reader, wal *WAL) (*Store, error) {
	s := New(nil) // do not re-log while replaying
	err := Replay(rd, func(r Record) error {
		return s.Apply(r.Txn, r.Writes, r.Index)
	})
	s.wal = wal
	if err != nil {
		return s, err
	}
	return s, nil
}

// RecoverFile rebuilds a store from a legacy single-file log and reopens
// the file for appending, truncating any torn tail first (the segmented
// equivalent is RecoverSegments). The returned store logs through the
// returned WAL, whose Close closes the file.
func RecoverFile(path string) (*Store, *WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	s := New(nil) // do not re-log while replaying
	off, err := ReplayPrefix(f, func(r Record) error {
		return s.Apply(r.Txn, r.Writes, r.Index)
	})
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil && fi.Size() > off {
			if err = f.Truncate(off); err == nil {
				err = f.Sync()
			}
		}
	}
	if err == nil {
		// Replay may have consumed part of the torn tail; reposition writes
		// at the end of the valid prefix.
		_, err = f.Seek(off, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return s, nil, err
	}
	w := NewWAL(f)
	w.Sync = f.Sync
	w.closer = f
	s.wal = w
	return s, w, nil
}
