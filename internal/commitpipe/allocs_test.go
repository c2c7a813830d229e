package commitpipe

import (
	"testing"

	"repro/internal/message"
	"repro/internal/storage"
)

// TestEnqueueAllocs pins the reprolint:noalloc contract on the per-txn
// enqueue path dynamically: with the batch scratch warmed to capacity
// (AllocsPerRun's warm-up call grows it once), staging a transaction's
// records — commit-index assignment, write dedup, batch append —
// allocates nothing per operation.
func TestEnqueueAllocs(t *testing.T) {
	p := New(Config{Store: storage.New(nil)})
	txns := []Txn{{
		ID: txn(1, 1),
		Entries: []Entry{{
			Writes: []message.KV{kv("a", "1"), kv("b", "2"), kv("c", "3")},
		}},
	}}
	allocs := testing.AllocsPerRun(200, func() {
		p.batch = p.batch[:0]
		txns[0].Entries[0].Index = 0 // re-assign a fresh commit index each run
		p.enqueue(&txns[0])
	})
	if allocs != 0 {
		t.Fatalf("enqueue = %v allocs/op, want 0", allocs)
	}
}

// discard is a log device that keeps nothing.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// handOffloader keeps the one job in flight for the test to run by hand,
// allocating nothing itself.
type handOffloader struct{ work, done func() }

func (o *handOffloader) Offload(work, done func()) bool {
	o.work, o.done = work, done
	return true
}

// TestSubmitAllocs pins the whole grouped Submit path: record-count bookkeeping, staging, the store install, the WAL
// append, queueing the acknowledgement, and the flush itself — detach,
// write+sync, completion, acknowledgements — add no allocation to what the
// store's own install costs. The reference is a twin store driven through
// the same sequence of installs and log flushes without a pipeline.
func TestSubmitAllocs(t *testing.T) {
	const runs, perFlush = 200, 4
	writes := []message.KV{kv("a", "1"), kv("b", "2")}

	twin := storage.New(storage.NewWAL(discard{}))
	twin.WAL().SetGrouped(true)
	idx, n := uint64(0), 0
	entry := []storage.BatchEntry{{Txn: txn(1, 1), Writes: writes}}
	want := testing.AllocsPerRun(runs, func() {
		idx++
		entry[0].Index = idx
		if err := twin.ApplyBatch(entry); err != nil {
			t.Fatal(err)
		}
		if n++; n%perFlush == 0 {
			if _, err := twin.WAL().Flush(); err != nil {
				t.Fatal(err)
			}
		}
	})

	acks := 0
	one := Txn{ID: txn(1, 1), Entries: []Entry{{Writes: writes}}, Ack: func(bool) { acks++ }}

	off := &handOffloader{}
	offloaded := New(Config{Store: storage.New(storage.NewWAL(discard{})), Policy: Policy{MaxBatch: perFlush}, Offload: off.Offload})
	n = 0
	if got := testing.AllocsPerRun(runs, func() {
		one.Entries[0].Index = 0
		offloaded.Submit(one)
		if n++; n%perFlush == 0 {
			off.work()
			off.done()
		}
	}); got != want {
		t.Fatalf("offloaded grouped Submit = %v allocs/op, the store's install alone = %v", got, want)
	}
	if acks == 0 || offloaded.Pending() > 2*perFlush || offloaded.Flushes == 0 {
		t.Fatalf("the measured path did not flush: acks=%d pending=%d flushes=%d", acks, offloaded.Pending(), offloaded.Flushes)
	}
}
