package lockmgr

import (
	"fmt"
	"testing"

	"repro/internal/message"
)

// TestAcquireReleaseAllocs pins the steady-state lock cycle of a replicated
// write at a replica — four no-wait exclusive acquires, then ReleaseAll —
// at zero allocations once the table is warm. Entries, held-key slices and
// the release scratch all come back off the Manager's free lists.
func TestAcquireReleaseAllocs(t *testing.T) {
	keys := make([]message.Key, 64)
	for i := range keys {
		keys[i] = message.Key(fmt.Sprintf("k%d", i))
	}
	m := New()
	seq := 0
	cycle := func() {
		seq++
		id := message.TxnID{Site: 0, Seq: uint64(seq)}
		for j := 0; j < 4; j++ {
			if r := m.Acquire(id, keys[(seq*4+j)%64], Exclusive, false, nil); r != Granted {
				t.Fatalf("acquire: %v", r)
			}
		}
		m.ReleaseAll(id)
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("acquire x4 + ReleaseAll = %v allocs, want 0", allocs)
	}
	if m.Locks() != 0 || len(m.entries) != 0 {
		t.Fatalf("table not empty: locks=%d entries=%d", m.Locks(), len(m.entries))
	}
}

// TestRecycledStorageBounded locks 10 000 distinct keys — once spread over
// a hundred transactions, once all by one — releases everything, and checks
// the table is empty and its free lists and scratch stay within their caps.
func TestRecycledStorageBounded(t *testing.T) {
	for _, perTxn := range []int{100, 10000} {
		m := New()
		for i := 0; i < 10000; i++ {
			id := txn(0, 1+i/perTxn)
			if r := m.Acquire(id, message.Key(fmt.Sprintf("k%05d", i)), Exclusive, false, nil); r != Granted {
				t.Fatalf("acquire %d: %v", i, r)
			}
		}
		for s := 1; s <= 10000/perTxn; s++ {
			m.ReleaseAll(txn(0, s))
		}
		if len(m.entries) != 0 || len(m.held) != 0 || len(m.waiting) != 0 {
			t.Fatalf("perTxn=%d: table not empty: entries=%d held=%d waiting=%d",
				perTxn, len(m.entries), len(m.held), len(m.waiting))
		}
		if len(m.freeEntries) != maxFree {
			t.Fatalf("perTxn=%d: %d free entries, want the cap %d", perTxn, len(m.freeEntries), maxFree)
		}
		for _, e := range m.freeEntries {
			if len(e.holders) != 0 || e.queue != nil || cap(e.holders) > maxRecycledLen {
				t.Fatalf("perTxn=%d: recycled entry not reset: %+v", perTxn, e)
			}
		}
		if len(m.freeHeld) > maxFree {
			t.Fatalf("perTxn=%d: %d free held slices, cap %d", perTxn, len(m.freeHeld), maxFree)
		}
		for _, keys := range m.freeHeld {
			if len(keys) != 0 || cap(keys) > maxRecycledLen {
				t.Fatalf("perTxn=%d: recycled held slice len %d cap %d", perTxn, len(keys), cap(keys))
			}
		}
		if cap(m.scratch) > maxRecycledLen {
			t.Fatalf("perTxn=%d: release scratch kept cap %d > %d", perTxn, cap(m.scratch), maxRecycledLen)
		}
	}
}
