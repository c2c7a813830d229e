package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func txn(site, seq int) message.TxnID {
	return message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)}
}

func kv(k, v string) message.KV {
	return message.KV{Key: message.Key(k), Value: message.Value(v)}
}

// fillWAL appends n single-write records (indexes 1..n) to a fresh segmented
// log in dir, rotating aggressively so truncation has sealed segments to eat.
func fillWAL(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := storage.OpenSegments(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		r := storage.Record{Index: uint64(i), Txn: txn(0, i),
			Writes: []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeAt replays records 1..n into a fresh store and returns its checkpoint.
func storeAt(t *testing.T, n int) *Checkpoint {
	t.Helper()
	st := storage.New(nil)
	for i := 1; i <= n; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return &Checkpoint{Applied: st.Applied(), Entries: st.Snapshot()}
}

// sampleCheckpoint sets every field a checkpoint carries, maps included, so
// round trips and the determinism check cover the whole encoding. Empty
// collections are nil, as the codec decodes them.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Applied: 7,
		Entries: []message.SnapshotEntry{{
			Key:      "x",
			Versions: []message.VersionRec{{Index: 7, Writer: txn(1, 3), Value: message.Value("v")}},
		}},
		Stack: &message.StackSync{
			CausalVC: vclock.VC{0, 4, 2},
			FifoNext: map[message.SiteID]uint64{0: 3, 1: 9, 2: 4},
			HighSeq: map[message.Class]map[message.SiteID]uint64{
				message.ClassCausal: {0: 4, 2: 2},
				message.ClassAtomic: {1: 11},
			},
		},
		Shard: &message.ShardRecovery{
			Prepared: []message.PreparedShard{{
				Txn: txn(2, 5), Index: 6, Vote: true, Coord: 2,
				Groups: []message.GroupID{0, 1}, Keys: []message.Key{"x"}, Writes: []message.KV{kv("x", "w")},
			}},
			Decided: []message.DecidedShard{{Txn: txn(0, 4), Commit: true}},
			Fenced:  []message.TxnID{txn(1, 8)},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleCheckpoint()
	path, size, err := Write(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || size <= headerLen || fi.Size() != size {
		t.Fatalf("reported size %d, file %v (%v)", size, fi, err)
	}
	if idx, err := IndexOf(path); err != nil || idx != 7 {
		t.Fatalf("IndexOf(%s) = %d, %v", path, idx, err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// No temp file left behind on the happy path.
	if tmps, _ := TempFiles(dir); len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}
}

// TestWriteIsDeterministic: the same state written twice gives
// byte-identical files, maps included (the codec writes them in key order).
func TestWriteIsDeterministic(t *testing.T) {
	var files [2][]byte
	for i := range files {
		path, _, err := Write(t.TempDir(), sampleCheckpoint())
		if err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("equal checkpoints wrote different bytes")
	}
}

// TestFormatV1FailsLoudly: a checkpoint from before the codec body —
// format version 1, well formed down to its checksum — is refused with
// ErrFormat, not skipped as corrupt, by Read, Latest and Recover alike.
// Falling back past it would replay a log whose prefix it truncated.
func TestFormatV1FailsLoudly(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 4)
	if _, _, err := Write(dir, storeAt(t, 2)); err != nil {
		t.Fatal(err)
	}
	body := []byte("a version-1 body; its encoding does not matter")
	v1 := make([]byte, headerLen, headerLen+len(body))
	copy(v1, magicV1[:])
	binary.LittleEndian.PutUint32(v1[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(v1[12:16], crc32.ChecksumIEEE(body))
	path := filePath(dir, 3)
	if err := os.WriteFile(path, append(v1, body...), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Read(path); !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read: err = %v, want ErrFormat and not ErrCorrupt", err)
	}
	if ck, _, err := Latest(dir); !errors.Is(err, ErrFormat) {
		t.Fatalf("Latest fell back to %+v (err %v), want ErrFormat", ck, err)
	}
	if _, _, _, err := Recover(dir, 1<<20); !errors.Is(err, ErrFormat) {
		t.Fatalf("Recover: err = %v, want ErrFormat", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path, _, err := Write(dir, storeAt(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"flipped body byte": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0xff; return c },
		"bad magic":         func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"short body":        func(b []byte) []byte { return b[:len(b)-4] },
		"header only":       func(b []byte) []byte { return b[:10] },
	} {
		if err := os.WriteFile(path, mutate(b), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLatestFallsBackPastCorrupt: a torn or corrupted newest checkpoint must
// not take down recovery — the previous valid one is used.
func TestLatestFallsBackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Write(dir, storeAt(t, 2)); err != nil {
		t.Fatal(err)
	}
	newest, _, err := Write(dir, storeAt(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, path, err := Latest(dir)
	if err != nil || ck == nil {
		t.Fatalf("Latest: %v %v", ck, err)
	}
	if ck.Applied != 2 || !strings.Contains(path, "0000000000000002") {
		t.Fatalf("Latest fell back to %d (%s), want the valid applied=2 file", ck.Applied, path)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{1, 2, 3, 4} {
		if _, _, err := Write(dir, storeAt(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	orphan := filepath.Join(dir, "ckpt-00000000000000aa.ckpt.tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := Prune(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 { // two old checkpoints + the orphan
		t.Fatalf("removed = %d, want 3", removed)
	}
	files, _ := Files(dir)
	if len(files) != 2 {
		t.Fatalf("surviving files: %v", files)
	}
	if ck, _, err := Latest(dir); err != nil || ck.Applied != 4 {
		t.Fatalf("newest after prune: %+v %v", ck, err)
	}
}

func TestRecoverWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.CheckpointIndex != 0 || info.Replayed != 5 || info.Skipped != 0 {
		t.Fatalf("info = %+v", info)
	}
	if st.Applied() != 5 {
		t.Fatalf("applied = %d", st.Applied())
	}
	if st.WAL() != w {
		t.Fatal("recovered store not attached to the reopened WAL")
	}
}

// TestRecoverRoundTrip: a store written through its log comes back with
// its version chains, and keeps logging through the reopened WAL.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := storage.OpenSegments(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := storage.New(l)
	mustApply(t, s, txn(0, 1), 1, kv("x", "a"))
	mustApply(t, s, txn(1, 1), 2, kv("y", "b"), kv("x", "c"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s2, w2, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Applied() != 2 {
		t.Fatalf("applied = %d, want 2", s2.Applied())
	}
	if rec, ok := s2.Get("x"); !ok || string(rec.Value) != "c" {
		t.Fatalf("x = %+v ok=%v", rec, ok)
	}
	if got := s2.VersionOrder("x"); len(got) != 2 || got[0] != txn(0, 1) || got[1] != txn(1, 1) {
		t.Fatalf("recovered chain of x = %v", got)
	}
	mustApply(t, s2, txn(0, 2), 3, kv("z", "d"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := storage.ReplaySegments(dir, func(storage.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d records, want 3", n)
	}
}

// TestRecoverTruncatesTornTailBeforeAppending: a torn last record is cut
// off before the log reopens, so what a restarted site appends survives the
// next restart instead of hiding behind the garbage bytes.
func TestRecoverTruncatesTornTailBeforeAppending(t *testing.T) {
	dir := t.TempDir()
	l, err := storage.OpenSegments(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := storage.New(l)
	mustApply(t, s, txn(0, 1), 1, kv("x", "a"))
	mustApply(t, s, txn(0, 2), 2, kv("y", "b"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := storage.SegmentFiles(dir)
	b, err := os.ReadFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[len(files)-1], b[:len(b)-5], 0o644); err != nil { // record 2 loses its tail
		t.Fatal(err)
	}

	s2, w2, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Applied() != 1 {
		t.Fatalf("recovered applied = %d, want 1 (torn record dropped)", s2.Applied())
	}
	mustApply(t, s2, txn(0, 3), 2, kv("z", "c"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, w3, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if s3.Applied() != 2 {
		t.Fatalf("second recovery applied = %d, want 2 (post-restart commit lost)", s3.Applied())
	}
	if rec, ok := s3.Get("z"); !ok || string(rec.Value) != "c" {
		t.Fatalf("post-restart commit z = %+v ok=%v", rec, ok)
	}
}

func mustApply(t *testing.T, s *storage.Store, id message.TxnID, idx uint64, writes ...message.KV) {
	t.Helper()
	if err := s.Apply(id, writes, idx); err != nil {
		t.Fatalf("apply %v@%d: %v", id, idx, err)
	}
}

// TestRecoverCheckpointPlusSuffix: the normal restart path — checkpoint at
// 3, WAL truncated below it, only the suffix replays.
func TestRecoverCheckpointPlusSuffix(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	if _, _, err := Write(dir, storeAt(t, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.TruncateSegments(dir, 3); err != nil {
		t.Fatal(err)
	}
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.CheckpointIndex != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d records, want just the suffix (2): %+v", info.Replayed, info)
	}
	if st.Applied() != 5 {
		t.Fatalf("applied = %d", st.Applied())
	}
	if v, ok := st.Get("k"); !ok || !strings.HasPrefix(string(v.Value), "v5") {
		t.Fatalf("k = %+v ok=%v", v, ok)
	}
}

// TestRecoverIdempotentBeforeTruncation: crash window between checkpoint
// rename and WAL truncation — the whole log is still on disk, and records at
// or below the floor must be skipped, not re-applied (re-applying would fail
// the store's monotonicity check against the restored chains).
func TestRecoverIdempotentBeforeTruncation(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 5)
	if _, _, err := Write(dir, storeAt(t, 3)); err != nil {
		t.Fatal(err)
	}
	// No truncation: simulate the crash immediately after rename.
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 3 || info.Replayed != 2 {
		t.Fatalf("info = %+v, want 3 skipped + 2 replayed", info)
	}
	if st.Applied() != 5 {
		t.Fatalf("applied = %d", st.Applied())
	}
	w.Close()
	// Recovery is repeatable: truncate now and recover again to the same state.
	if _, err := storage.TruncateSegments(dir, 3); err != nil {
		t.Fatal(err)
	}
	st2, w2, _, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st2.Applied() != st.Applied() || st2.VersionCount() != st.VersionCount() {
		t.Fatalf("second recovery diverged: applied %d vs %d", st2.Applied(), st.Applied())
	}
}

// TestRecoverIgnoresPartialTempFile: crash mid-checkpoint-write leaves only
// a *.tmp — recovery must use the previous checkpoint and the full suffix.
func TestRecoverIgnoresPartialTempFile(t *testing.T) {
	dir := t.TempDir()
	fillWAL(t, dir, 4)
	if _, _, err := Write(dir, storeAt(t, 2)); err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "ckpt-0000000000000004.ckpt.tmp")
	if err := os.WriteFile(partial, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, w, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.CheckpointIndex != 2 {
		t.Fatalf("recovery used %+v, want the completed applied=2 checkpoint", info)
	}
	if st.Applied() != 4 {
		t.Fatalf("applied = %d", st.Applied())
	}
}

// runSource builds a Source over a live store+WAL pair in dir.
func runSource(t *testing.T, dir string) (*storage.Store, *storage.WAL, Source) {
	t.Helper()
	l, err := storage.OpenSegments(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	st := storage.New(l)
	src := Source{
		Capture:  func() *Checkpoint { return &Checkpoint{Applied: st.Applied(), Entries: st.Snapshot()} },
		Barrier:  func() uint64 { return st.Applied() },
		WALBytes: l.AppendedBytes,
	}
	return st, l, src
}

func TestCheckpointerRun(t *testing.T) {
	dir := t.TempDir()
	st, _, src := runSource(t, dir)
	var observed int
	src.Observe = func(time.Duration, int64, uint64, int) { observed++ }
	c := NewCheckpointer(Policy{Dir: dir, Retain: 1}, src, Runtime{})
	if c == nil {
		t.Fatal("enabled policy returned a nil checkpointer")
	}

	// Nothing committed: no checkpoint.
	if path := c.Run(); path != "" || c.Stats().Checkpoints != 0 {
		t.Fatalf("empty run wrote %q, stats %+v", path, c.Stats())
	}

	for i := 1; i <= 6; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", fmt.Sprintf("v%d-padpadpadpadpadpadpad", i))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := c.Run()
	if path == "" {
		t.Fatal("run with committed state wrote nothing")
	}
	s := c.Stats()
	if s.Checkpoints != 1 || s.LastIndex != 6 || s.LastBytes <= 0 {
		t.Fatalf("stats after first run: %+v", s)
	}
	if s.SegmentsTruncated == 0 {
		t.Fatalf("no sealed segments truncated: %+v", s)
	}
	if observed != 1 {
		t.Fatalf("Observe called %d times", observed)
	}

	// No progress since: skip (no new file, no counter bump).
	if path := c.Run(); path != "" || c.Stats().Checkpoints != 1 {
		t.Fatalf("no-progress run wrote %q, stats %+v", path, c.Stats())
	}

	// More commits: a second checkpoint, and Retain=1 prunes the first.
	if err := st.Apply(txn(0, 7), []message.KV{kv("k", "v7")}, 7); err != nil {
		t.Fatal(err)
	}
	if path := c.Run(); path == "" {
		t.Fatal("second run wrote nothing")
	}
	files, _ := Files(dir)
	if len(files) != 1 {
		t.Fatalf("retention not applied: %v", files)
	}
	if idx, _ := IndexOf(files[0]); idx != 7 {
		t.Fatalf("retained checkpoint at %d, want 7", idx)
	}

	// The truncated, checkpointed directory still recovers to full state.
	if err := st.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	st2, w2, info, err := Recover(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st2.Applied() != 7 || info.CheckpointIndex != 7 {
		t.Fatalf("post-truncation recovery: applied %d, info %+v", st2.Applied(), info)
	}
}

// TestCheckpointerBytesTrigger: with no interval, tick() checkpoints only
// once the WAL has grown past MaxWALBytes since the last checkpoint.
func TestCheckpointerBytesTrigger(t *testing.T) {
	dir := t.TempDir()
	st, l, src := runSource(t, dir)
	var timers int
	rt := Runtime{SetTimer: func(d time.Duration, fn func()) { timers++ }}
	c := NewCheckpointer(Policy{Dir: dir, MaxWALBytes: 200, Retain: 2}, src, rt)
	c.Start()
	if timers != 1 {
		t.Fatalf("Start armed %d timers, want 1", timers)
	}

	if err := st.Apply(txn(0, 1), []message.KV{kv("k", "small")}, 1); err != nil {
		t.Fatal(err)
	}
	c.tick() // far below the bytes threshold: no checkpoint
	if c.Stats().Checkpoints != 0 {
		t.Fatalf("tick below threshold checkpointed: %+v", c.Stats())
	}

	big := strings.Repeat("x", 120)
	for i := 2; i <= 4; i++ {
		if err := st.Apply(txn(0, i), []message.KV{kv("k", big)}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.AppendedBytes() < 200 {
		t.Fatalf("test setup: WAL only grew to %d bytes", l.AppendedBytes())
	}
	c.tick()
	if c.Stats().Checkpoints != 1 || c.Stats().LastIndex != 4 {
		t.Fatalf("tick past threshold: %+v", c.Stats())
	}
	// The floor resets: an immediate re-tick must not checkpoint again.
	c.tick()
	if c.Stats().Checkpoints != 1 {
		t.Fatalf("re-tick without growth checkpointed again: %+v", c.Stats())
	}
}

// TestNilCheckpointerSafe: disabled policies produce a nil checkpointer
// whose methods are all no-ops — callers don't branch.
func TestNilCheckpointerSafe(t *testing.T) {
	c := NewCheckpointer(Policy{}, Source{Capture: func() *Checkpoint { return nil }}, Runtime{})
	if c != nil {
		t.Fatal("disabled policy built a checkpointer")
	}
	c.Start()
	if c.Run() != "" {
		t.Fatal("nil Run returned a path")
	}
	if s := c.Stats(); s.Checkpoints != 0 {
		t.Fatalf("nil Stats = %+v", s)
	}
	if p := c.Policy(); p.Enabled() {
		t.Fatalf("nil Policy = %+v", p)
	}
}
