package core

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestLockingReadAllocs pins the granted read of the lock-based engines: a
// shared lock on a free key, the read, and the release allocate nothing
// beyond the growth of the transaction's read set (pre-sized here). No
// continuation closures are built unless the read has to queue.
func TestLockingReadAllocs(t *testing.T) {
	c := sim.NewCluster(1, netsim.Uniform{}, 1)
	e := NewReliable(c.Runtime(0), Config{})
	tx := e.Begin(false)
	tx.reads = make([]sgraph.ReadObs, 0, 1)
	reads := 0
	cb := func(_ message.Value, err error) {
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		reads++
	}
	read := func() {
		tx.reads = tx.reads[:0]
		e.Read(tx, "k", cb)
		e.locks.ReleaseAll(tx.ID)
	}
	read() // warm the lock table's free lists
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("granted read = %v allocs, want 0", allocs)
	}
	if reads != 1002 || len(tx.reads) != 1 {
		t.Fatalf("reads = %d, recorded %d: the read did not run at once", reads, len(tx.reads))
	}
}

// TestOrderedCommitAllocs pins protocol A's commit path at a replica that
// is not the transaction's home, where no client waits: delivering one
// ordered request, certifying it, advancing the committed versions and
// running it through a pipeline without a WAL allocate nothing beyond what
// the store's own install costs. The reference is a twin store given the
// same installs.
func TestOrderedCommitAllocs(t *testing.T) {
	const runs = 200
	writes := []message.KV{kv("a", "1"), kv("b", "2")}
	id := message.TxnID{Site: 0, Seq: 1}

	twin := storage.New(nil)
	idx := uint64(0)
	entry := []storage.BatchEntry{{Txn: id, Writes: writes}}
	want := testing.AllocsPerRun(runs, func() {
		idx++
		entry[0].Index = idx
		if err := twin.ApplyBatch(entry); err != nil {
			t.Fatal(err)
		}
	})

	c := sim.NewCluster(3, netsim.Uniform{}, 1)
	e := NewAtomic(c.Runtime(1), Config{PiggybackWrites: true})
	req := &message.CommitReq{Txn: id, Writes: []message.KeyVer{{Key: "a"}, {Key: "b"}}, NWrites: 2, WriteKV: writes}
	idx = 0
	got := testing.AllocsPerRun(runs, func() {
		// Each request read the versions the previous one installed, so
		// every one certifies.
		req.Writes[0].Ver, req.Writes[1].Ver = idx, idx
		idx++
		e.deliver(broadcast.Delivery{Class: message.ClassAtomic, Index: idx, Payload: req})
	})
	if got != want {
		t.Fatalf("certify and submit one ordered request = %v allocs/op, the store's install alone = %v", got, want)
	}
	if rec, _ := e.store.Get("b"); e.CertIndex() != idx || rec.Index != idx || e.stats.Applied != runs+1 {
		t.Fatalf("cert index %d, b at %d, %d applied: want every one of %d requests committed", e.CertIndex(), rec.Index, e.stats.Applied, idx)
	}
}
