package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/message"
)

func TestGroupedFlushWritesOnceAndSyncsOnce(t *testing.T) {
	var buf bytes.Buffer
	syncs := 0
	l := NewWAL(&buf)
	l.Sync = func() error { syncs++; return nil }
	l.SetGrouped(true)
	for i := 1; i <= 5; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("k", fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("grouped append wrote %d bytes before Flush", buf.Len())
	}
	if syncs != 0 {
		t.Fatalf("grouped append synced %d times before Flush", syncs)
	}
	if l.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", l.Pending())
	}
	n, err := l.Flush()
	if err != nil || n != 5 {
		t.Fatalf("Flush = (%d, %v), want (5, nil)", n, err)
	}
	if syncs != 1 {
		t.Fatalf("Flush synced %d times, want 1", syncs)
	}
	if n, err := l.Flush(); n != 0 || err != nil {
		t.Fatalf("empty Flush = (%d, %v)", n, err)
	}
	if syncs != 1 {
		t.Fatalf("empty Flush synced")
	}

	var got []Record
	if err := Replay(bytes.NewReader(buf.Bytes()), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 5 || got[0].Index != 1 || got[4].Index != 5 {
		t.Fatalf("replayed %d records: %+v", len(got), got)
	}
}

func TestGroupedTornTailWithinBatch(t *testing.T) {
	var buf bytes.Buffer
	l := NewWAL(&buf)
	l.SetGrouped(true)
	for i := 1; i <= 4; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("k", "v")}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, err := l.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Tear the batch mid-record: the last record loses half its bytes,
	// as after a crash between write and fsync completion.
	whole := buf.Len()
	torn := buf.Bytes()[:whole-9]
	var got []Record
	if err := Replay(bytes.NewReader(torn), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("torn replay: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records from torn batch, want 3", len(got))
	}
}

func TestSegmentRotationKeepsRecordsWhole(t *testing.T) {
	dir := t.TempDir()
	// A segment threshold small enough that every record rotates.
	l, err := OpenSegments(dir, 64)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	big := make(message.Value, 50)
	for i := 1; i <= 4; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{{Key: "k", Value: big}}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	files, err := SegmentFiles(dir)
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(files) != 4 {
		t.Fatalf("segments = %d (%v), want 4", len(files), files)
	}
	var got []Record
	if err := ReplaySegments(dir, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	for i, r := range got {
		if r.Index != uint64(i+1) {
			t.Fatalf("record %d has index %d", i, r.Index)
		}
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
}

func TestGroupedBatchNeverSplitsAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 128)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.SetGrouped(true)
	// First batch lands in segment 1.
	for i := 1; i <= 2; i++ {
		_ = l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("key", "value")}})
	}
	if _, err := l.Flush(); err != nil {
		t.Fatalf("flush 1: %v", err)
	}
	// Second batch would overflow segment 1, so the whole batch rotates.
	for i := 3; i <= 5; i++ {
		_ = l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("key", "value")}})
	}
	if _, err := l.Flush(); err != nil {
		t.Fatalf("flush 2: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	files, err := SegmentFiles(dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("segments = %v err=%v, want 2 files", files, err)
	}
	counts := make([]int, 0, 2)
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		n := 0
		if err := Replay(f, func(Record) error { n++; return nil }); err != nil {
			t.Fatalf("replay %s: %v", path, err)
		}
		f.Close()
		counts = append(counts, n)
	}
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("records per segment = %v, want [2 3]", counts)
	}
}

func TestOpenSegmentsResumesHighestSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 64)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	big := make(message.Value, 50)
	for i := 1; i <= 3; i++ {
		_ = l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{{Key: "k", Value: big}}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	before, _ := SegmentFiles(dir)

	// Reopen and append: must continue on the highest segment, not segment 1.
	l2, err := OpenSegments(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l2.Append(Record{Index: 4, Txn: txn(0, 4), Writes: []message.KV{kv("k", "tail")}}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
	after, _ := SegmentFiles(dir)
	if len(after) != len(before) {
		t.Fatalf("reopen grew segments: %d -> %d", len(before), len(after))
	}
	var got []Record
	if err := ReplaySegments(dir, func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != 4 || got[3].Index != 4 {
		t.Fatalf("replayed %d records, last %+v", len(got), got[len(got)-1])
	}
}

// tearTail rewrites path with its last n bytes removed, leaving a torn
// record as a crash between a batch's write and its completion would.
func tearTail(t *testing.T, path string, n int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if len(b) <= n {
		t.Fatalf("log too short to tear: %d bytes", len(b))
	}
	if err := os.WriteFile(path, b[:len(b)-n], 0o644); err != nil {
		t.Fatalf("tear %s: %v", path, err)
	}
}

func TestReplaySegmentsRejectsTornNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 64)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	big := make(message.Value, 50)
	for i := 1; i <= 3; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{{Key: "k", Value: big}}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	files, _ := SegmentFiles(dir)
	if len(files) < 2 {
		t.Fatalf("rotation did not happen: %v", files)
	}
	tearTail(t, files[0], 5)

	// A short first segment is missing records mid-log, not a crash tail:
	// replay must surface corruption instead of skipping them silently.
	n := 0
	err = ReplaySegments(dir, func(Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n != 0 {
		t.Fatalf("delivered %d records past the tear, want 0", n)
	}
}

func TestReplaySegmentsSurfacesCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 1; i <= 3; i++ {
		_ = l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("k", fmt.Sprintf("v%d", i))}})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	files, _ := SegmentFiles(dir)
	path := files[0]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b[len(b)-1] ^= 0xff // flip a bit inside the last record's body
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	n := 0
	err = ReplaySegments(dir, func(Record) error { n++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if n != 2 {
		t.Fatalf("valid prefix = %d records, want 2", n)
	}
}

// TestSingleFileLogMigratesToSegment: a log written as one plain file is
// refused with the migration command, and doing what it says — the file
// becomes the directory's first segment — replays every record.
func TestSingleFileLogMigratesToSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site0.wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l := NewWAL(f)
	for i := 1; i <= 3; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("k", fmt.Sprintf("v%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = ReplaySegments(path, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "mkdir "+path+".d && mv "+path+" "+path+".d/wal-000001.seg") {
		t.Fatalf("plain file err = %v, want the migration command", err)
	}
	if _, err := OpenSegments(path, 0); err == nil {
		t.Fatal("OpenSegments appended to a plain file")
	}

	dir := path + ".d"
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, filepath.Join(dir, "wal-000001.seg")); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if err := ReplaySegments(dir, func(r Record) error { got = append(got, r.Index); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("migrated log replayed indexes %v, want 1..3", got)
	}
}

func TestApplyBatchInstallsGroupAtomically(t *testing.T) {
	var buf bytes.Buffer
	l := NewWAL(&buf)
	s := New(l)
	err := s.ApplyBatch([]BatchEntry{
		{Txn: txn(0, 1), Writes: []message.KV{kv("x", "a")}, Index: 1},
		{Txn: txn(1, 1), Writes: []message.KV{kv("x", "b"), kv("y", "c")}, Index: 2},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if rec, ok := s.Get("x"); !ok || string(rec.Value) != "b" || rec.Index != 2 {
		t.Fatalf("x = %+v ok=%v", rec, ok)
	}
	if s.Applied() != 2 {
		t.Fatalf("applied = %d", s.Applied())
	}
	n := 0
	if err := Replay(bytes.NewReader(buf.Bytes()), func(Record) error { n++; return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != 2 {
		t.Fatalf("logged %d records, want 2", n)
	}
}

func TestApplyBatchRejectsWholeGroupOnStaleEntry(t *testing.T) {
	var buf bytes.Buffer
	l := NewWAL(&buf)
	s := New(l)
	mustApply(t, s, txn(0, 1), 5, kv("x", "v5"))
	logged := buf.Len()
	err := s.ApplyBatch([]BatchEntry{
		{Txn: txn(0, 2), Writes: []message.KV{kv("y", "fine")}, Index: 6},
		{Txn: txn(0, 3), Writes: []message.KV{kv("x", "stale")}, Index: 4},
	})
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("err = %v, want ErrStaleIndex", err)
	}
	// Nothing from the rejected group installed or logged.
	if _, ok := s.Get("y"); ok {
		t.Fatal("rejected group partially installed")
	}
	if buf.Len() != logged {
		t.Fatal("rejected group partially logged")
	}
}

func TestApplyBatchIntraGroupMonotonicity(t *testing.T) {
	s := New(nil)
	// Second entry reuses the first entry's index on the same key: stale
	// within the group even though the store has no versions yet.
	err := s.ApplyBatch([]BatchEntry{
		{Txn: txn(0, 1), Writes: []message.KV{kv("x", "a")}, Index: 3},
		{Txn: txn(0, 2), Writes: []message.KV{kv("x", "b")}, Index: 3},
	})
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("err = %v, want ErrStaleIndex", err)
	}
	// Ascending indexes on the same key within one group are fine.
	err = s.ApplyBatch([]BatchEntry{
		{Txn: txn(0, 1), Writes: []message.KV{kv("x", "a")}, Index: 3},
		{Txn: txn(0, 2), Writes: []message.KV{kv("x", "b")}, Index: 4},
	})
	if err != nil {
		t.Fatalf("ascending batch: %v", err)
	}
	if rec, _ := s.Get("x"); rec.Index != 4 {
		t.Fatalf("x index = %d, want 4", rec.Index)
	}
}

// TestTruncateSegments: only sealed segments wholly at or below the floor
// are removed; the active segment survives even when fully covered, and a
// reopened log appends where it left off.
func TestTruncateSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 64) // tiny: one record per segment
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	big := make(message.Value, 50)
	for i := 1; i <= 4; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{{Key: "k", Value: big}}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	files, _ := SegmentFiles(dir)
	if len(files) < 3 {
		t.Fatalf("rotation did not happen: %v", files)
	}

	// Floor 2: only segments whose every index is <= 2 go.
	n, err := TruncateSegments(dir, 2)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if n == 0 {
		t.Fatal("no segments truncated at floor 2")
	}
	var got []uint64
	if err := ReplaySegments(dir, func(r Record) error {
		got = append(got, r.Index)
		return nil
	}); err != nil {
		t.Fatalf("replay after truncation: %v", err)
	}
	if len(got) == 0 || got[0] > 3 || got[len(got)-1] != 4 {
		t.Fatalf("surviving indexes %v: truncation removed records above the floor", got)
	}

	// Floor past everything: the final (active) segment still survives.
	if _, err := TruncateSegments(dir, 100); err != nil {
		t.Fatalf("truncate all: %v", err)
	}
	files, _ = SegmentFiles(dir)
	if len(files) != 1 {
		t.Fatalf("active segment not preserved: %v", files)
	}

	// The truncated log reopens and appends.
	l2, err := OpenSegments(dir, 1<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l2.Append(Record{Index: 5, Txn: txn(0, 5), Writes: []message.KV{kv("k", "tail")}}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

// TestTruncateSegmentsStopsAtCorruptSegment: an undecodable sealed segment
// blocks truncation of itself and everything after it — deleting segments
// beyond what replay can read would turn recoverable corruption into silent
// data loss.
func TestTruncateSegmentsStopsAtCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 64)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	big := make(message.Value, 50)
	for i := 1; i <= 3; i++ {
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{{Key: "k", Value: big}}}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	files, _ := SegmentFiles(dir)
	if len(files) < 3 {
		t.Fatalf("rotation did not happen: %v", files)
	}
	// Corrupt the FIRST sealed segment: nothing may be removed.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := TruncateSegments(dir, 100)
	if err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if n != 0 {
		t.Fatalf("truncated %d segments past a corrupt one", n)
	}
	after, _ := SegmentFiles(dir)
	if len(after) != len(files) {
		t.Fatalf("segments removed despite corruption: %v -> %v", files, after)
	}
}

// TestAppendedBytes: the byte counter feeding the checkpoint bytes-trigger
// grows with every append and survives nothing — it is per-process state.
func TestAppendedBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 1<<20)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if l.AppendedBytes() != 0 {
		t.Fatalf("fresh log AppendedBytes = %d", l.AppendedBytes())
	}
	if err := l.Append(Record{Index: 1, Txn: txn(0, 1), Writes: []message.KV{kv("k", "v")}}); err != nil {
		t.Fatal(err)
	}
	first := l.AppendedBytes()
	if first <= 0 {
		t.Fatalf("AppendedBytes after one append = %d", first)
	}
	if err := l.Append(Record{Index: 2, Txn: txn(0, 2), Writes: []message.KV{kv("k", "w")}}); err != nil {
		t.Fatal(err)
	}
	if l.AppendedBytes() <= first {
		t.Fatalf("AppendedBytes did not grow: %d -> %d", first, l.AppendedBytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentNamesAreDurable counts directory syncs: a fresh log syncs its
// parent (the directory's own name) and itself (the first segment's), and a
// WriteSync that rotates has synced the directory holding the new segment
// before it returns — so no acknowledged record lives in a segment whose
// name a power loss could drop. A truncation that removes segments syncs
// the directory once more.
func TestSegmentNamesAreDurable(t *testing.T) {
	synced := make(map[string]int)
	orig := syncDir
	syncDir = func(dir string) error { synced[dir]++; return orig(dir) }
	defer func() { syncDir = orig }()

	parent := t.TempDir()
	dir := filepath.Join(parent, "wal")
	l, err := OpenSegments(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	if synced[parent] != 1 || synced[dir] != 1 {
		t.Fatalf("after open: syncs %v, want parent and log dir once each", synced)
	}
	l.SetGrouped(true)
	write := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			_ = l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("key", "value")}})
		}
		b := l.Detach()
		if err := l.WriteSync(b); err != nil {
			t.Fatal(err)
		}
		l.Recycle(b)
	}
	write(1, 2) // fits segment 1
	if synced[dir] != 1 {
		t.Fatalf("non-rotating write synced the directory: %v", synced)
	}
	write(3, 5) // overflows: rotates to segment 2
	if files, _ := SegmentFiles(dir); len(files) != 2 {
		t.Fatalf("segments %v, want 2", files)
	}
	if synced[dir] != 2 {
		t.Fatalf("rotating WriteSync returned with %d directory syncs, want 2", synced[dir])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := TruncateSegments(dir, 2); err != nil || n != 1 {
		t.Fatalf("truncate removed %d err=%v, want 1", n, err)
	}
	if synced[dir] != 3 {
		t.Fatalf("truncation left %d directory syncs, want 3", synced[dir])
	}
}
