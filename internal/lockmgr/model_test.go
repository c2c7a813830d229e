package lockmgr

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/message"
)

// modelState is a straightforward reference implementation of a lock
// table: holders per key plus a FIFO queue, with no optimization. The
// property test runs random operation streams through both the Manager and
// the model and compares observable behaviour after every step.
type modelState struct {
	holders map[message.Key]map[message.TxnID]Mode
	queue   map[message.Key][]modelWaiter
}

type modelWaiter struct {
	txn  message.TxnID
	mode Mode
	id   int // identifies the request's grant callback
}

func newModel() *modelState {
	return &modelState{
		holders: make(map[message.Key]map[message.TxnID]Mode),
		queue:   make(map[message.Key][]modelWaiter),
	}
}

func (m *modelState) compatibleWithHolders(key message.Key, txn message.TxnID, mode Mode) bool {
	for t, h := range m.holders[key] {
		if t == txn {
			continue
		}
		if h == Exclusive || mode == Exclusive {
			return false
		}
	}
	return true
}

func (m *modelState) hold(key message.Key, txn message.TxnID, mode Mode) {
	if m.holders[key] == nil {
		m.holders[key] = make(map[message.TxnID]Mode)
	}
	m.holders[key][txn] = mode
}

// acquire mirrors Manager.Acquire's contract; id names the grant callback
// of a request that queues.
func (m *modelState) acquire(txn message.TxnID, key message.Key, mode Mode, wait bool, id int) Result {
	if cur, ok := m.holders[key][txn]; ok {
		if cur >= mode {
			return Granted
		}
		if len(m.holders[key]) == 1 {
			m.holders[key][txn] = mode
			return Granted
		}
	} else if len(m.queue[key]) == 0 && m.compatibleWithHolders(key, txn, mode) {
		m.hold(key, txn, mode)
		return Granted
	}
	if !wait {
		return Conflict
	}
	m.queue[key] = append(m.queue[key], modelWaiter{txn, mode, id})
	return Queued
}

// releaseAll drops txn everywhere, then promotes every key's queue in
// sorted key order and returns the granted callbacks in firing order.
func (m *modelState) releaseAll(txn message.TxnID) []int {
	for _, hs := range m.holders {
		delete(hs, txn)
	}
	for key, q := range m.queue {
		var out []modelWaiter
		for _, w := range q {
			if w.txn != txn {
				out = append(out, w)
			}
		}
		m.queue[key] = out
	}
	keys := make([]message.Key, 0, len(m.queue))
	for key := range m.queue {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	var granted []int
	for _, key := range keys {
		granted = m.promote(key, granted)
	}
	return granted
}

func (m *modelState) promote(key message.Key, granted []int) []int {
	for len(m.queue[key]) > 0 {
		w := m.queue[key][0]
		mode := w.mode
		if cur, held := m.holders[key][w.txn]; held {
			if cur < w.mode && len(m.holders[key]) > 1 {
				return granted
			}
			mode = max(cur, w.mode) // a grant never lowers a held mode
		} else if !m.compatibleWithHolders(key, w.txn, w.mode) {
			return granted
		}
		m.hold(key, w.txn, mode)
		m.queue[key] = m.queue[key][1:]
		granted = append(granted, w.id)
	}
	return granted
}

func (m *modelState) locks() int {
	n := 0
	for _, hs := range m.holders {
		n += len(hs)
	}
	return n
}

func (m *modelState) waiters() int {
	n := 0
	for _, q := range m.queue {
		n += len(q)
	}
	return n
}

// holdersOf returns key's holders sorted, as Manager.Holders does.
func (m *modelState) holdersOf(key message.Key) []message.TxnID {
	var out []message.TxnID
	for t := range m.holders[key] {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// heldBy returns the keys txn holds, sorted.
func (m *modelState) heldBy(txn message.TxnID) []message.Key {
	var out []message.Key
	for key, hs := range m.holders {
		if _, ok := hs[txn]; ok {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out
}

// sharedHeld returns a key txn holds in shared mode, or "" — the start of
// a deliberate upgrade.
func (m *modelState) sharedHeld(txn message.TxnID) message.Key {
	for _, key := range m.heldBy(txn) {
		if m.holders[key][txn] == Shared {
			return key
		}
	}
	return ""
}

// TestManagerMatchesModel runs long random operation streams — shared and
// exclusive requests, waiting or not, deliberate upgrades of held shared
// locks, releases — and asserts the Manager and the reference model agree
// on every Acquire result, on the order in which grant callbacks fire, and
// after every step on each key's holders and their modes, each
// transaction's held keys, and the holder/waiter totals.
func TestManagerMatchesModel(t *testing.T) {
	var txns []message.TxnID
	for site := 0; site < 3; site++ {
		for seq := 1; seq <= 12; seq++ {
			txns = append(txns, message.TxnID{Site: message.SiteID(site), Seq: uint64(seq)})
		}
	}
	keys := []message.Key{"a", "b", "c", "d", "e"}
	for _, seed := range []int64{99, 7, 2024} {
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 30; trial++ {
			mgr := New()
			model := newModel()
			var fired []int
			for step := 0; step < 500; step++ {
				txn := txns[r.Intn(len(txns))]
				key := keys[r.Intn(len(keys))]
				op := r.Intn(6)
				if op == 2 {
					// Deliberate upgrade: X on a key txn holds shared.
					if k := model.sharedHeld(txn); k != "" {
						key = k
					}
				}
				switch op {
				case 0, 1, 2:
					mode := Shared
					if op == 2 || r.Intn(2) == 0 {
						mode = Exclusive
					}
					wait := op == 2 || r.Intn(2) == 0
					id := step
					got := mgr.Acquire(txn, key, mode, wait, func() { fired = append(fired, id) })
					want := model.acquire(txn, key, mode, wait, id)
					if got != want {
						t.Fatalf("seed %d trial %d step %d: Acquire(%v,%q,%v,wait=%v) = %v, model says %v",
							seed, trial, step, txn, key, mode, wait, got, want)
					}
				default:
					fired = fired[:0]
					mgr.ReleaseAll(txn)
					if want := model.releaseAll(txn); !slices.Equal(fired, want) {
						t.Fatalf("seed %d trial %d step %d: ReleaseAll(%v) granted %v, model says %v",
							seed, trial, step, txn, fired, want)
					}
				}
				if mgr.Locks() != model.locks() {
					t.Fatalf("seed %d trial %d step %d: locks %d vs model %d", seed, trial, step, mgr.Locks(), model.locks())
				}
				if mgr.Waiters() != model.waiters() {
					t.Fatalf("seed %d trial %d step %d: waiters %d vs model %d", seed, trial, step, mgr.Waiters(), model.waiters())
				}
				for _, k := range keys {
					got, want := mgr.Holders(k), model.holdersOf(k)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d trial %d step %d: Holders(%q) = %v, model says %v", seed, trial, step, k, got, want)
					}
					for _, h := range want {
						if got, want := mgr.HolderMode(h, k), model.holders[k][h]; got != want {
							t.Fatalf("seed %d trial %d step %d: HolderMode(%v,%q) = %v, model says %v", seed, trial, step, h, k, got, want)
						}
					}
				}
				for _, x := range txns {
					if got, want := mgr.HeldKeys(x), model.heldBy(x); !slices.Equal(got, want) {
						t.Fatalf("seed %d trial %d step %d: HeldKeys(%v) = %v, model says %v", seed, trial, step, x, got, want)
					}
				}
			}
		}
	}
}
