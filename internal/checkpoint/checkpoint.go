// Package checkpoint persists durable snapshots of a site's store and
// broadcast-stack frontiers, truncates the fully-checkpointed prefix of the
// segmented WAL, and recovers a restarted site from its newest checkpoint
// plus only the WAL suffix — O(delta) restart instead of full-log replay.
//
// Checkpoint files live in the same directory as the WAL segments
// (ckpt-*.ckpt beside wal-*.seg) so the two halves of a site's durable
// state cannot drift apart operationally. A checkpoint is written to a
// temporary file, fsynced, atomically renamed into place, and the directory
// fsynced — a crash mid-write leaves only a *.tmp orphan that loading
// skips and cmd/walcheck flags. Truncation deletes only sealed WAL
// segments whose every record index is covered by the checkpoint; replay
// after recovery skips records at or below the checkpoint's applied index,
// which makes the crash window between rename and truncation idempotent.
//
// A file is a 16-byte header — the magic, the body's length and its CRC32,
// both little-endian uint32 — followed by the body: the wire codec's
// encoding of a message.SnapshotChunk carrying the checkpoint's fields, so
// checkpoints and state transfers share one fuzzed, bounded decoder.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/storage"
)

// ErrCorrupt is returned when a checkpoint file fails its magic, length,
// checksum or body validation.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// ErrFormat is returned for a checkpoint file written in format version 1
// (a gob body), which this version no longer reads. It is not ErrCorrupt:
// Latest and Recover stop at it instead of falling back, because falling
// back would replay a log whose prefix that checkpoint truncated.
var ErrFormat = errors.New(`checkpoint: format version 1 is no longer readable (docs/OPERATIONS.md, "Upgrading from format-1 checkpoints")`)

// magic identifies a checkpoint file ("rpCK" + format version 2); magicV1
// is the format it replaced.
var (
	magic   = [8]byte{'r', 'p', 'C', 'K', 0, 0, 0, 2}
	magicV1 = [8]byte{'r', 'p', 'C', 'K', 0, 0, 0, 1}
)

// headerLen is the magic plus the body's length and checksum.
const headerLen = 16

// Checkpoint is the durable unit: the store's full state at an applied
// commit index plus the broadcast stack's progress frontiers, so a
// restarted site resumes both its database and its delivery machinery.
type Checkpoint struct {
	Applied uint64
	Entries []message.SnapshotEntry
	// Stack is nil for engines without a broadcast stack (baseline,
	// quorum).
	Stack *message.StackSync
	// Shard is the group's cross-shard certification state under partial
	// replication (nil elsewhere): certified-undecided prepares survive a
	// restart through it, so a crashed member's orphaned prepares can
	// still be terminated.
	Shard *message.ShardRecovery
}

// filePath names the checkpoint at applied index idx inside dir. The index
// is zero-padded hex so lexical order is numeric order.
func filePath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", idx))
}

// Files returns dir's completed checkpoint files in ascending applied-index
// order.
func Files(dir string) ([]string, error) { return glob(dir, "ckpt-*.ckpt") }

// TempFiles returns orphaned in-progress checkpoint files (crash
// mid-write). Loading ignores them; walcheck reports them.
func TempFiles(dir string) ([]string, error) { return glob(dir, "ckpt-*.ckpt.tmp") }

// glob returns dir's files matching pattern in lexical order.
func glob(dir, pattern string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	sort.Strings(matches)
	return matches, err
}

// IndexOf parses the applied index out of a checkpoint file name.
func IndexOf(path string) (uint64, error) {
	var idx uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "ckpt-%016x.ckpt", &idx); err != nil {
		return 0, fmt.Errorf("checkpoint: bad file name %q", filepath.Base(path))
	}
	return idx, nil
}

// Write persists ck into dir: encode, checksum, write to a temp file,
// fsync, rename into place, fsync the directory. Returns the final path
// and the file's size in bytes.
func Write(dir string, ck *Checkpoint) (string, int64, error) {
	b := make([]byte, headerLen) // length and checksum patched below
	copy(b, magic[:])
	b = appendBody(b, ck)
	body := b[headerLen:]
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(body))

	final := filePath(dir, ck.Applied)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", 0, err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	if err := storage.SyncDir(dir); err != nil {
		return final, 0, err
	}
	return final, int64(len(b)), nil
}

// appendBody appends ck's body encoding to b: a SnapshotChunk holds exactly
// a checkpoint's fields, and the codec writes maps in key order, so equal
// checkpoints encode to equal bytes.
func appendBody(b []byte, ck *Checkpoint) []byte {
	return message.AppendMessage(b, &message.SnapshotChunk{
		Applied: ck.Applied, Entries: ck.Entries, Stack: ck.Stack, Shard: ck.Shard,
	})
}

// decodeBody is appendBody's inverse. Every failure is ErrCorrupt.
func decodeBody(body []byte) (*Checkpoint, error) {
	m, err := message.DecodeMessage(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	sc, ok := m.(*message.SnapshotChunk)
	if !ok {
		return nil, fmt.Errorf("%w: body is a %v, not a SnapshotChunk", ErrCorrupt, m.Kind())
	}
	return &Checkpoint{Applied: sc.Applied, Entries: sc.Entries, Stack: sc.Stack, Shard: sc.Shard}, nil
}

// Read loads and validates one checkpoint file.
func Read(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch {
	case len(b) < headerLen:
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(b))
	case bytes.Equal(b[:8], magicV1[:]):
		return nil, ErrFormat
	case !bytes.Equal(b[:8], magic[:]):
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body := b[headerLen:]
	if size := binary.LittleEndian.Uint32(b[8:12]); uint64(size) != uint64(len(body)) {
		return nil, fmt.Errorf("%w: header says %d body bytes, file holds %d", ErrCorrupt, size, len(body))
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[12:16]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return decodeBody(body)
}

// Latest loads the newest valid checkpoint in dir, skipping corrupt or
// partial files (a torn newer checkpoint falls back to the previous one).
// Any other error, ErrFormat included, is returned: recovery must not fall
// back past a checkpoint it cannot read for a reason other than damage.
// Returns (nil, "", nil) when no valid checkpoint exists.
func Latest(dir string) (*Checkpoint, string, error) {
	files, err := Files(dir)
	if err != nil {
		return nil, "", err
	}
	for i := len(files) - 1; i >= 0; i-- {
		ck, err := Read(files[i])
		if err == nil {
			return ck, files[i], nil
		}
		if !errors.Is(err, ErrCorrupt) {
			return nil, "", err
		}
	}
	return nil, "", nil
}

// Prune deletes completed checkpoints beyond the retain newest, oldest
// first, plus any orphaned temp files. Returns how many files it removed.
func Prune(dir string, retain int) (int, error) {
	if retain < 1 {
		retain = 1
	}
	files, err := Files(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for len(files) > retain {
		if err := os.Remove(files[0]); err != nil {
			return removed, err
		}
		removed++
		files = files[1:]
	}
	tmps, err := TempFiles(dir)
	if err != nil {
		return removed, err
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// RecoverInfo reports what recovery found and did.
type RecoverInfo struct {
	CheckpointIndex uint64 // applied index of the checkpoint used (0 = none)
	CheckpointPath  string // "" when no checkpoint was found
	Stack           *message.StackSync
	Shard           *message.ShardRecovery // cross-shard state (sharded groups)
	Replayed        int                    // WAL records applied above the checkpoint
	Skipped         int                    // WAL records at or below the checkpoint (overlap)
}

// Recover is the one way a site's durable state is read back: it rebuilds
// the store from the newest valid checkpoint in dir plus the WAL suffix
// above it, truncates any torn WAL tail, and reopens the segmented log for
// appending. Records at or below the checkpoint's applied index are
// skipped, which makes replay idempotent over the rename-before-truncation
// crash window. With no checkpoint file the whole log replays. It does not
// matter whether the restarted site will take checkpoints itself: once one
// was taken, the segments it covered may be gone.
func Recover(dir string, maxBytes int64) (*storage.Store, *storage.WAL, *RecoverInfo, error) {
	info := &RecoverInfo{}
	st := storage.New(nil) // replay must not re-log
	ck, path, err := Latest(dir)
	if err != nil {
		return nil, nil, info, err
	}
	if ck != nil {
		st.Restore(ck.Entries, ck.Applied)
		info.CheckpointIndex = ck.Applied
		info.CheckpointPath = path
		info.Stack = ck.Stack
		info.Shard = ck.Shard
	}
	floor := info.CheckpointIndex
	lastPath, validOff, err := storage.ReplaySegmentsPrefix(dir, func(r storage.Record) error {
		if r.Index <= floor {
			info.Skipped++
			return nil
		}
		info.Replayed++
		return st.Apply(r.Txn, r.Writes, r.Index)
	})
	if err != nil {
		return st, nil, info, err
	}
	if lastPath != "" {
		if err := storage.TruncateTail(lastPath, validOff); err != nil {
			return st, nil, info, err
		}
	}
	w, err := storage.OpenSegments(dir, maxBytes)
	if err != nil {
		return st, nil, info, err
	}
	st.SetWAL(w)
	return st, w, info, nil
}

// Policy configures a Checkpointer. A zero Dir disables checkpointing.
type Policy struct {
	// Dir is where checkpoints (and the WAL segments they truncate) live.
	Dir string
	// Interval is the periodic trigger (0 disables the timer; bytes can
	// still trigger).
	Interval time.Duration
	// MaxWALBytes triggers a checkpoint once that many bytes have been
	// appended to the WAL since the last one (0 = no bytes trigger).
	MaxWALBytes int64
	// Retain is how many completed checkpoints Prune keeps (min 1).
	Retain int
}

// Enabled reports whether the policy names a checkpoint directory.
func (p Policy) Enabled() bool { return p.Dir != "" }

// Source is how the checkpointer reads the engine's state. Every hook runs
// on the site's event loop, so no locking is needed.
type Source struct {
	// Capture serializes the current store + stack state.
	Capture func() *Checkpoint
	// Barrier flushes any buffered group commit so the WAL is consistent
	// with the captured state, returning the pipeline's LSN (diagnostics).
	Barrier func() uint64
	// WALBytes reports bytes appended to the WAL so far (the
	// bytes-since-last trigger input). Nil disables the bytes trigger.
	WALBytes func() int64
	// Observe, when non-nil, is called after each successful checkpoint
	// with its wall latency, file bytes, applied index, and how many WAL
	// segments were truncated. core wires it to trace spans and metrics.
	Observe func(start time.Duration, bytes int64, applied uint64, truncated int)
}

// Stats counts what the checkpointer has done, for STATS and metrics.
type Stats struct {
	Checkpoints       int
	LastIndex         uint64
	LastBytes         int64
	LastUnix          time.Duration // site-clock timestamp of the last checkpoint
	SegmentsTruncated int
	Errors            int
}

// Runtime is the slice of the event-loop runtime the checkpointer needs.
// It is satisfied by a thin adapter over env.Runtime (core wires one) so
// this package stays environment-agnostic.
type Runtime struct {
	SetTimer func(d time.Duration, fn func())
	Now      func() time.Duration
	Logf     func(format string, args ...any)
}

// Checkpointer periodically persists checkpoints and truncates the WAL.
// It is driven entirely by event-loop timers: Start arms the first timer,
// and each run re-arms it, so all state access stays single-threaded.
type Checkpointer struct {
	pol   Policy
	src   Source
	rt    Runtime
	stats Stats

	lastWALBytes int64 // WALBytes() reading at the last checkpoint
}

// NewCheckpointer wires a checkpointer; returns nil when the policy is
// disabled (callers nil-check before Start, and a nil Checkpointer's
// methods are safe no-ops).
func NewCheckpointer(pol Policy, src Source, rt Runtime) *Checkpointer {
	if !pol.Enabled() || src.Capture == nil {
		return nil
	}
	if pol.Retain < 1 {
		pol.Retain = 1
	}
	if rt.Now == nil {
		rt.Now = func() time.Duration { return 0 }
	}
	if rt.Logf == nil {
		rt.Logf = func(string, ...any) {}
	}
	return &Checkpointer{pol: pol, src: src, rt: rt}
}

// Stats returns a copy of the counters (zero value on a nil receiver).
func (c *Checkpointer) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// Policy returns the active policy (zero value on a nil receiver).
func (c *Checkpointer) Policy() Policy {
	if c == nil {
		return Policy{}
	}
	return c.pol
}

// Start arms the periodic trigger. Safe on a nil receiver.
func (c *Checkpointer) Start() {
	if c == nil {
		return
	}
	c.arm()
}

// tickInterval is how often the bytes trigger is polled when no Interval
// is configured.
const tickInterval = 100 * time.Millisecond

func (c *Checkpointer) arm() {
	d := c.pol.Interval
	if d <= 0 {
		if c.pol.MaxWALBytes <= 0 || c.src.WALBytes == nil {
			return // nothing can ever trigger
		}
		d = tickInterval
	}
	if c.rt.SetTimer == nil {
		return // no runtime (tests drive Run directly)
	}
	c.rt.SetTimer(d, c.tick)
}

// tick runs on the event loop: checkpoint if a trigger fired, re-arm.
func (c *Checkpointer) tick() {
	due := c.pol.Interval > 0 // timer-driven policies checkpoint every tick
	if c.pol.MaxWALBytes > 0 && c.src.WALBytes != nil &&
		c.src.WALBytes()-c.lastWALBytes >= c.pol.MaxWALBytes {
		due = true
	}
	if due {
		c.Run()
	}
	c.arm()
}

// Run takes one checkpoint now: barrier, capture, write, prune, truncate.
// Called from the event loop (tick, or tests driving it directly). Safe on
// a nil receiver. Returns the checkpoint path ("" on error or no-op).
func (c *Checkpointer) Run() string {
	if c == nil {
		return ""
	}
	start := c.rt.Now()
	if c.src.Barrier != nil {
		c.src.Barrier()
	}
	ck := c.src.Capture()
	if ck == nil || ck.Applied == 0 {
		return "" // nothing committed yet; an empty checkpoint has no value
	}
	if ck.Applied <= c.stats.LastIndex && c.stats.Checkpoints > 0 {
		// Nothing new committed since the last checkpoint; skip the I/O
		// but refresh the bytes floor (retransmissions may have grown it).
		if c.src.WALBytes != nil {
			c.lastWALBytes = c.src.WALBytes()
		}
		return ""
	}
	path, bytes, err := Write(c.pol.Dir, ck)
	if err != nil {
		c.stats.Errors++
		c.rt.Logf("checkpoint: write failed: %v", err)
		return ""
	}
	c.stats.Checkpoints++
	c.stats.LastIndex = ck.Applied
	c.stats.LastBytes = bytes
	c.stats.LastUnix = c.rt.Now()
	if c.src.WALBytes != nil {
		c.lastWALBytes = c.src.WALBytes()
	}
	if _, err := Prune(c.pol.Dir, c.pol.Retain); err != nil {
		c.stats.Errors++
		c.rt.Logf("checkpoint: prune failed: %v", err)
	}
	n, err := storage.TruncateSegments(c.pol.Dir, ck.Applied)
	if err != nil {
		c.stats.Errors++
		c.rt.Logf("checkpoint: wal truncation failed: %v", err)
	}
	c.stats.SegmentsTruncated += n
	if c.src.Observe != nil {
		c.src.Observe(start, bytes, ck.Applied, n)
	}
	return path
}
