package core

import (
	"testing"

	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/sim"
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
