package commitpipe

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/storage"
)

func txn(site, seq int) message.TxnID {
	return message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)}
}

func kv(k, v string) message.KV {
	return message.KV{Key: message.Key(k), Value: message.Value(v)}
}

func syncPipe(t *testing.T, wal *storage.WAL) (*Pipeline, *storage.Store) {
	t.Helper()
	st := storage.New(wal)
	return New(Config{Site: 0, Store: st}), st
}

func TestSyncModeAcksImmediately(t *testing.T) {
	var buf bytes.Buffer
	syncs := 0
	wal := storage.NewWAL(&buf)
	wal.Sync = func() error { syncs++; return nil }
	p, st := syncPipe(t, wal)

	acked := false
	p.Submit(Txn{
		ID:      txn(0, 1),
		Entries: []Entry{{Writes: []message.KV{kv("x", "a")}}},
		Ack:     func(committed bool) { acked = committed },
	})
	if !acked {
		t.Fatal("sync-mode commit did not ack immediately")
	}
	if syncs != 1 {
		t.Fatalf("syncs = %d, want 1 (per-record durability)", syncs)
	}
	if rec, ok := st.Get("x"); !ok || rec.Index != 1 {
		t.Fatalf("x = %+v ok=%v, want install at index 1", rec, ok)
	}
}

func TestLsnAssignmentAndExplicitIndexes(t *testing.T) {
	p, st := syncPipe(t, nil)
	p.Submit(Txn{ID: txn(0, 1), Entries: []Entry{{Writes: []message.KV{kv("a", "1")}}}})
	p.Submit(Txn{ID: txn(0, 2), Entries: []Entry{{Writes: []message.KV{kv("b", "2")}, Index: 7}}})
	p.Submit(Txn{ID: txn(0, 3), Entries: []Entry{{Writes: []message.KV{kv("c", "3")}}}})
	for key, want := range map[message.Key]uint64{"a": 1, "b": 7, "c": 8} {
		rec, ok := st.Get(key)
		if !ok || rec.Index != want {
			t.Fatalf("%s = %+v ok=%v, want index %d", key, rec, ok, want)
		}
	}
}

func TestResumesLsnFromRecoveredStore(t *testing.T) {
	st := storage.New(nil)
	if err := st.Apply(txn(0, 1), []message.KV{kv("x", "old")}, 41); err != nil {
		t.Fatal(err)
	}
	p := New(Config{Site: 0, Store: st})
	p.Submit(Txn{ID: txn(0, 2), Entries: []Entry{{Writes: []message.KV{kv("x", "new")}}}})
	if rec, _ := st.Get("x"); rec.Index != 42 {
		t.Fatalf("x index = %d, want 42 (resume from applied)", rec.Index)
	}
}

func TestCertifyFailureAcksAbortImmediately(t *testing.T) {
	off := &stepOffloader{}
	p, _ := offloadPipe(off)
	st := p.cfg.Store
	var aborted, committed bool
	applied := false
	p.SubmitGroup([]Txn{
		{
			ID:      txn(0, 1),
			Entries: []Entry{{Writes: []message.KV{kv("x", "no")}}},
			Aborted: true,
			Applied: func() { applied = true },
			Ack:     func(ok bool) { aborted = !ok },
		},
		{
			ID:      txn(0, 2),
			Entries: []Entry{{Writes: []message.KV{kv("y", "yes")}}},
			Ack:     func(ok bool) { committed = ok },
		},
	})
	if !aborted {
		t.Fatal("failed certification did not ack(false) immediately")
	}
	if applied {
		t.Fatal("Applied ran for a failed certification")
	}
	if _, ok := st.Get("x"); ok {
		t.Fatal("failed certification installed writes")
	}
	if committed {
		t.Fatal("grouped commit acked before fsync")
	}
	if _, ok := st.Get("y"); !ok {
		t.Fatal("committed install missing (installs are synchronous)")
	}
	off.runWork()
	off.post()
	if !committed {
		t.Fatal("the batch's completion did not release the ack")
	}
}

func TestExplicitFlushReleasesAcks(t *testing.T) {
	off := &stepOffloader{auto: true}
	p, d := offloadPipe(off)
	a1 := submit(p, 1) // in flight
	a2 := submit(p, 2) // open batch, behind it
	p.Flush()
	if *a1 != 1 || *a2 != 1 {
		t.Fatalf("Flush did not release the acks: %d %d", *a1, *a2)
	}
	if p.Pending() != 0 || d.syncs != 2 {
		t.Fatalf("after Flush: Pending = %d, syncs = %d, want 0 and 2", p.Pending(), d.syncs)
	}
	off.wg.Wait()
}

// TestAckReentrancy: the first of two acknowledgements of one batch
// re-enters the pipeline, as a client callback submitting its next
// transaction would. The second still fires, in order, and the re-entrant
// record is acknowledged by a later batch, not by the one completing.
func TestAckReentrancy(t *testing.T) {
	off := &stepOffloader{}
	p, _ := offloadPipe(off)
	order := []string{}
	submit(p, 9) // in flight, so that the next two share the open batch
	p.Submit(Txn{
		ID:      txn(0, 1),
		Entries: []Entry{{Writes: []message.KV{kv("a", "1")}}},
		Ack: func(bool) {
			order = append(order, "ack1")
			p.Submit(Txn{
				ID:      txn(0, 3),
				Entries: []Entry{{Writes: []message.KV{kv("c", "3")}}},
				Ack:     func(bool) { order = append(order, "ack3") },
			})
		},
	})
	p.Submit(Txn{
		ID:      txn(0, 2),
		Entries: []Entry{{Writes: []message.KV{kv("b", "2")}}},
		Ack:     func(bool) { order = append(order, "ack2") },
	})
	off.runWork()
	off.post() // batch {9} done, batch {1, 2} detached
	off.runWork()
	off.post() // batch {1, 2} done: both acks, and the re-entrant submission
	if len(order) != 2 || order[0] != "ack1" || order[1] != "ack2" {
		t.Fatalf("order = %v", order)
	}
	if p.Pending() != 1 {
		t.Fatalf("Pending = %d, want the re-entrant txn queued", p.Pending())
	}
	off.runWork()
	off.post()
	if len(order) != 3 || order[2] != "ack3" {
		t.Fatalf("order = %v", order)
	}
}

func TestVersionedEntriesAndOnApply(t *testing.T) {
	p, st := syncPipe(t, nil)
	applied := 0
	p.cfg.OnApply = func(message.TxnID) { applied++ }
	cleanedUp := false
	// A quorum-style install: one versioned entry per key, one skipped.
	p.Submit(Txn{
		ID: txn(2, 9),
		Entries: []Entry{
			{Writes: []message.KV{kv("p", "1")}, Index: 12, Versioned: true},
			{Writes: []message.KV{kv("q", "2")}, Index: 3, Versioned: true},
		},
		TraceWrites: 3,
		Applied:     func() { cleanedUp = true },
	})
	if applied != 1 {
		t.Fatalf("OnApply ran %d times, want once per transaction", applied)
	}
	if !cleanedUp {
		t.Fatal("Applied callback did not run")
	}
	if rec, _ := st.Get("p"); rec.Index != 12 {
		t.Fatalf("p index = %d", rec.Index)
	}
	if rec, _ := st.Get("q"); rec.Index != 3 {
		t.Fatalf("q index = %d", rec.Index)
	}
	// Versioned indexes never drag the per-site sequence backwards, but a
	// high one advances it.
	p.Submit(Txn{ID: txn(0, 1), Entries: []Entry{{Writes: []message.KV{kv("r", "4")}}}})
	if rec, _ := st.Get("r"); rec.Index != 13 {
		t.Fatalf("r index = %d, want 13", rec.Index)
	}
}

func TestApplyBatchFailureAcksAbort(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		name := "sync"
		if grouped {
			name = "grouped"
		}
		t.Run(name, func(t *testing.T) {
			off := &stepOffloader{}
			var p *Pipeline
			if grouped {
				p, _ = offloadPipe(off)
			} else {
				p, _ = syncPipe(t, storage.NewWAL(&bytes.Buffer{}))
			}
			st := p.cfg.Store
			// Seed a version the stale submission below will collide with.
			if err := st.Apply(txn(0, 1), []message.KV{kv("x", "old")}, 5); err != nil {
				t.Fatal(err)
			}
			applies := 0
			p.cfg.OnApply = func(message.TxnID) { applies++ }

			acked, committed, released := false, false, false
			p.Submit(Txn{
				ID:      txn(0, 2),
				Entries: []Entry{{Writes: []message.KV{kv("x", "stale")}, Index: 3}},
				Applied: func() { released = true },
				Ack:     func(ok bool) { acked, committed = true, ok },
			})
			if !acked || committed {
				t.Fatalf("acked=%v committed=%v, want immediate ack(false)", acked, committed)
			}
			if applies != 0 {
				t.Fatal("OnApply ran for a rejected install")
			}
			if !released {
				t.Fatal("Applied skipped: locks would never release")
			}
			if rec, _ := st.Get("x"); string(rec.Value) != "old" {
				t.Fatalf("x = %q, rejected install leaked", rec.Value)
			}
			if !grouped {
				return
			}
			if p.Pending() != 0 || off.jobs() != 0 {
				t.Fatalf("Pending = %d, flushes started = %d: failed txn queued behind an fsync", p.Pending(), off.jobs())
			}
			// The rejected group added nothing to the open batch; the next
			// good submission is judged on its own.
			good := submit(p, 10)
			off.runWork()
			off.post()
			if *good != 1 || p.Flushes != 1 {
				t.Fatalf("ack=%d flushes=%d after one good txn, want 1 1", *good, p.Flushes)
			}
		})
	}
}

// TestFlushFailureAcksAbort: without group commit a record whose own sync
// failed is not durable, so its client hears failure. (Under group commit:
// TestOffloadFsyncErrorAcksFalse.)
func TestFlushFailureAcksAbort(t *testing.T) {
	wal := storage.NewWAL(&bytes.Buffer{})
	wal.Sync = func() error { return errors.New("disk full") }
	p, _ := syncPipe(t, wal)
	var acks []bool
	for i := 1; i <= 2; i++ {
		p.Submit(Txn{
			ID:      txn(0, i),
			Entries: []Entry{{Writes: []message.KV{kv("k", "v")}}},
			Ack:     func(ok bool) { acks = append(acks, ok) },
		})
	}
	if len(acks) != 2 || acks[0] || acks[1] {
		t.Fatalf("acks = %v after failed fsyncs, want [false false]", acks)
	}
	if p.Flushes != 0 {
		t.Fatalf("Flushes = %d, failed fsync counted as a flush", p.Flushes)
	}
}

func TestZeroRecordCommitAcksWithoutWaitingForBatch(t *testing.T) {
	off := &stepOffloader{}
	p, _ := offloadPipe(off)
	// Nothing to sync, so no flush will ever complete for it: a queued ack
	// would wait forever on a quiescent site.
	acked := false
	p.Submit(Txn{ID: txn(0, 1), Ack: func(ok bool) { acked = ok }})
	if !acked {
		t.Fatal("record-less commit deferred with nothing to fsync")
	}
	if p.Pending() != 0 || off.jobs() != 0 {
		t.Fatalf("Pending = %d, flushes started = %d", p.Pending(), off.jobs())
	}
	// In a mixed group only the record-bearing txn waits for the fsync.
	var writeAcked, emptyAcked bool
	p.SubmitGroup([]Txn{
		{
			ID:      txn(0, 2),
			Entries: []Entry{{Writes: []message.KV{kv("x", "a")}}},
			Ack:     func(ok bool) { writeAcked = ok },
		},
		{ID: txn(0, 3), Ack: func(ok bool) { emptyAcked = ok }},
	})
	if !emptyAcked {
		t.Fatal("record-less commit in a mixed group deferred")
	}
	if writeAcked {
		t.Fatal("record-bearing commit acked before its fsync")
	}
	off.runWork()
	off.post()
	if !writeAcked {
		t.Fatal("the completion did not release the queued ack")
	}
}

// TestBatchMetrics: one observation per fsync, sized by the records it
// covered, and a summary line that reports them.
func TestBatchMetrics(t *testing.T) {
	off := &stepOffloader{}
	p, _ := offloadPipe(off)
	for i := 1; i <= 8; i++ {
		submit(p, i) // 1 goes in flight alone, 2..8 share the next batch
	}
	for off.runWork() {
		off.post()
	}
	if p.Flushes != 2 || p.BatchSizes.Count() != 2 {
		t.Fatalf("Flushes = %d, BatchSizes count = %d, want 2 and 2", p.Flushes, p.BatchSizes.Count())
	}
	if lo, hi := p.BatchSizes.Quantile(0), p.BatchSizes.Quantile(1); lo != 1 || hi != 7 {
		t.Fatalf("batch sizes %d and %d, want 1 and 7", lo, hi)
	}
	if s := p.Summary(); !strings.HasPrefix(s, "wal_flushes=2 sync_inflight=0 batch[") {
		t.Fatalf("summary = %q", s)
	}
}
