package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/message"
)

// refRecord is the record framing built the long way round — body first,
// then a header computed from it — as the reference for the in-place
// encoder.
func refRecord(r Record) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, r.Index)
	body = binary.LittleEndian.AppendUint32(body, uint32(r.Txn.Site))
	body = binary.LittleEndian.AppendUint64(body, r.Txn.Seq)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(r.Writes)))
	for _, w := range r.Writes {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(w.Key)))
		body = append(body, w.Key...)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(w.Value)))
		body = append(body, w.Value...)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

// TestAppendRecordBytes: encoding in place behind a reserved header yields
// the same bytes as header-after-body, also when the destination already
// holds earlier records.
func TestAppendRecordBytes(t *testing.T) {
	recs := []Record{
		{Index: 1, Txn: txn(1, 1), Writes: []message.KV{kv("k", "v")}},
		{Index: 2, Txn: txn(0, 9), Writes: []message.KV{{Key: "a"}, kv("b", "x")}},
		{Index: 1 << 40, Txn: txn(7, 3)},
	}
	var got, want []byte
	for _, r := range recs {
		got = appendRecord(got, r)
		want = append(want, refRecord(r)...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place encoding differs from the reference:\n got %x\nwant %x", got, want)
	}
}

// TestAppendAllocs pins the reprolint:noalloc marker on appendRecord at
// run time, through both append modes: once the destination buffer has
// grown to its working size, logging a record allocates nothing.
func TestAppendAllocs(t *testing.T) {
	rec := Record{Txn: txn(1, 2), Writes: []message.KV{kv("k1", "a 64-byte value would do as well"), kv("k2", "b")}}
	perRecord := NewWAL(discard{})
	if allocs := testing.AllocsPerRun(200, func() {
		rec.Index++
		_ = perRecord.Append(rec) // discard cannot fail
	}); allocs != 0 {
		t.Fatalf("per-record Append = %v allocs/op, want 0", allocs)
	}
	grouped := NewWAL(discard{})
	grouped.SetGrouped(true)
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 4; i++ {
			rec.Index++
			_ = grouped.Append(rec) // buffered; cannot fail
		}
		b := grouped.Detach()
		_ = grouped.WriteSync(b) // discard cannot fail
		grouped.Recycle(b)
	}); allocs != 0 {
		t.Fatalf("grouped Append+Detach+WriteSync+Recycle = %v allocs/op, want 0 (double buffer)", allocs)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestDetachWriteSyncSplit: a detached batch is off the append side at once
// (new appends land in the next batch) and reaches the writer only through
// WriteSync, in detach order; a failed write or sync is the batch's error.
func TestDetachWriteSyncSplit(t *testing.T) {
	var buf bytes.Buffer
	syncs := 0
	l := NewWAL(&buf)
	l.Sync = func() error { syncs++; return nil }
	l.SetGrouped(true)
	app := func(i int) {
		t.Helper()
		if err := l.Append(Record{Index: uint64(i), Txn: txn(0, i), Writes: []message.KV{kv("k", fmt.Sprint(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	app(1)
	app(2)
	first := l.Detach()
	if first.Records() != 2 || l.Pending() != 0 {
		t.Fatalf("Detach took %d records and left %d pending, want 2 and 0", first.Records(), l.Pending())
	}
	app(3) // while the first batch is "in flight"
	if buf.Len() != 0 || syncs != 0 || l.AppendedBytes() != 0 {
		t.Fatalf("detached batch reached the writer before WriteSync: %d bytes, %d syncs", buf.Len(), syncs)
	}
	if err := l.WriteSync(first); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 || l.AppendedBytes() != int64(buf.Len()) || buf.Len() == 0 {
		t.Fatalf("WriteSync: %d syncs, %d bytes written, AppendedBytes %d", syncs, buf.Len(), l.AppendedBytes())
	}
	l.Recycle(first)
	second := l.Detach()
	if second.Records() != 1 {
		t.Fatalf("second batch holds %d records, want the 1 appended while the first was detached", second.Records())
	}
	if err := l.WriteSync(second); err != nil {
		t.Fatal(err)
	}
	l.Recycle(second)
	if err := l.WriteSync(l.Detach()); err != nil || syncs != 2 {
		t.Fatalf("empty batch: err %v, %d syncs (want nil and no further sync)", err, syncs)
	}
	var got []uint64
	if err := Replay(bytes.NewReader(buf.Bytes()), func(r Record) error { got = append(got, r.Index); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("replayed %v, want [1 2 3]", got)
	}

	boom := errors.New("disk gone")
	l.Sync = func() error { return boom }
	app(4)
	if err := l.WriteSync(l.Detach()); !errors.Is(err, boom) {
		t.Fatalf("WriteSync with a failing sync = %v, want %v", err, boom)
	}
}

// TestDetachAcrossGoroutines drives the ownership split the commit
// pipeline uses, under the race detector: one goroutine appends, detaches
// and recycles, another writes; AppendedBytes is read from both sides.
func TestDetachAcrossGoroutines(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegments(dir, 512) // small segments: the writer also rotates
	if err != nil {
		t.Fatal(err)
	}
	l.SetGrouped(true)
	const batches, perBatch = 50, 3
	toSync := make(chan Batch)
	synced := make(chan Batch)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the syncer
		defer wg.Done()
		for b := range toSync {
			if err := l.WriteSync(b); err != nil {
				t.Errorf("WriteSync: %v", err)
			}
			_ = l.AppendedBytes()
			synced <- b
		}
	}()
	idx := 0
	appendBatch := func() {
		for i := 0; i < perBatch; i++ {
			idx++
			if err := l.Append(Record{Index: uint64(idx), Txn: txn(0, idx), Writes: []message.KV{kv("k", fmt.Sprint(idx))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendBatch()
	for n := 0; n < batches; n++ {
		toSync <- l.Detach()
		appendBatch() // the loop keeps appending while the batch is written
		_ = l.AppendedBytes()
		l.Recycle(<-synced)
	}
	close(toSync)
	wg.Wait()
	if err := l.Close(); err != nil { // writes the last open batch
		t.Fatal(err)
	}
	next := uint64(1)
	if err := ReplaySegments(dir, func(r Record) error {
		if r.Index != next {
			return fmt.Errorf("record %d where %d was due", r.Index, next)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := uint64((batches+1)*perBatch + 1); next != want {
		t.Fatalf("replayed up to %d, want %d", next-1, want-1)
	}
}

// TestApplyBatchLoneEntry: the map-free validation of a one-entry batch
// rejects what the general path rejects — a stale index and a key written
// twice — and installs nothing when it does.
func TestApplyBatchLoneEntry(t *testing.T) {
	s := New(nil)
	if err := s.ApplyBatch([]BatchEntry{{Txn: txn(0, 1), Writes: []message.KV{kv("x", "a"), kv("y", "b")}, Index: 5}}); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]BatchEntry{
		"stale index":  {Txn: txn(0, 2), Writes: []message.KV{kv("z", "c"), kv("x", "d")}, Index: 5},
		"repeated key": {Txn: txn(0, 3), Writes: []message.KV{kv("z", "c"), kv("z", "d")}, Index: 6},
	} {
		if err := s.ApplyBatch([]BatchEntry{e}); !errors.Is(err, ErrStaleIndex) {
			t.Fatalf("%s: err = %v, want ErrStaleIndex", name, err)
		}
		if _, ok := s.Get("z"); ok || s.Applied() != 5 {
			t.Fatalf("%s: rejected entry left state behind (applied %d)", name, s.Applied())
		}
	}
	// The same two cases through the general path, for agreement.
	big := make([]message.KV, smallWriteSet+1)
	for i := range big {
		big[i] = kv(fmt.Sprintf("b%d", i), "v")
	}
	big[smallWriteSet] = big[0]
	if err := s.ApplyBatch([]BatchEntry{{Txn: txn(0, 4), Writes: big, Index: 7}}); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("repeated key beyond smallWriteSet: err = %v, want ErrStaleIndex", err)
	}
	fresh := BatchEntry{Writes: []message.KV{kv("p", "1"), kv("q", "2")}, Index: 9}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = s.validateSmall(fresh)
	}); allocs != 0 {
		t.Fatalf("validateSmall = %v allocs/op, want 0", allocs)
	}
}
