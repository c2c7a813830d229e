// Package lockmgr implements each site's strict two-phase-locking table:
// shared/exclusive locks with FIFO wait queues, lock upgrades, a waits-for
// graph with cycle detection, and a no-wait acquisition mode.
//
// The broadcast-based protocols use no-wait exclusive acquisition — a
// delivered replicated write that conflicts is refused immediately (the
// negative acknowledgement path), so writers never wait and the waits-for
// relation can never form a cycle. The point-to-point baseline uses
// blocking acquisition with wound-wait. The deadlock detector exists both
// for the baseline and as a test oracle proving the broadcast protocols
// deadlock-free.
//
// Every replicated write at every replica passes through Acquire and
// ReleaseAll, so the table recycles its own storage: an emptied key entry
// and a finished transaction's held-key slice go on per-Manager free lists
// (bounded by maxFree and maxRecycledLen) instead of to the GC, and a no-wait
// lock cycle allocates nothing in steady state.
package lockmgr

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/trace"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Result reports the outcome of an acquisition attempt.
type Result int

// Acquisition outcomes.
const (
	// Granted means the lock is held on return.
	Granted Result = iota + 1
	// Queued means the request waits; the Grant callback fires later.
	Queued
	// Conflict means the request was refused (no-wait mode or upgrade
	// conflict). A refused request changes no state.
	Conflict
)

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r {
	case Granted:
		return "granted"
	case Queued:
		return "queued"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("Result(%d)", int(r))
	}
}

// Bounds on recycled storage. At most maxFree entries and maxFree held-key
// slices wait on the free lists; a slice whose capacity exceeds
// maxRecycledLen (a transaction that locked many keys, a key with many
// shared holders, a release that touched many keys) goes to the GC instead,
// so one large transaction cannot pin its footprint for the table's
// lifetime. The retained memory is therefore at most maxFree entries with
// maxRecycledLen holder slots each, plus maxFree key slices of
// maxRecycledLen keys and one release scratch of maxRecycledLen keys.
const (
	maxFree        = 1024
	maxRecycledLen = 64
)

type waiter struct {
	txn   message.TxnID
	mode  Mode
	grant func()
	at    time.Duration // tracer clock at enqueue, for lock-wait spans
}

// holder is one granted lock on a key. Most keys have exactly one.
type holder struct {
	txn  message.TxnID
	mode Mode
}

type entry struct {
	holders []holder // in grant order
	queue   []waiter
}

// holderIndex returns txn's slot in e.holders, or -1.
func (e *entry) holderIndex(txn message.TxnID) int {
	for i, h := range e.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// compatibleWith reports whether a request in mode by a transaction that is
// not a holder is compatible with every current holder.
func (e *entry) compatibleWith(mode Mode) bool {
	for _, h := range e.holders {
		if !compatible(h.mode, mode) {
			return false
		}
	}
	return true
}

// Manager is one site's lock table. It is owned by the site's event loop.
type Manager struct {
	entries map[message.Key]*entry
	// held lists the keys each transaction holds. Invariant: key is in
	// held[txn] iff txn is among entries[key].holders; the mode lives only
	// in the holder slot.
	held map[message.TxnID][]message.Key
	// waiting counts queued requests per (txn, key): a transaction may
	// legally queue more than one request on a key (e.g. repeated upgrade
	// attempts), and release must purge them all.
	waiting map[message.TxnID]map[message.Key]int

	// Recycled storage; see maxFree and maxRecycledLen.
	freeEntries []*entry
	freeHeld    [][]message.Key
	// scratch collects the keys one ReleaseAll touched. It is handed back
	// before the grant callbacks run, since a callback may re-enter
	// ReleaseAll.
	scratch []message.Key

	// Tracer, when non-nil, records queued-then-granted acquisitions as
	// lock-wait spans. The engine that owns the table wires both fields;
	// Now must come from the runtime's clock (never the wall clock) so the
	// table stays deterministic under the simulator.
	Tracer *trace.Tracer
	Now    func() time.Duration
}

// clock reads the injected clock, or 0 when tracing is not wired.
func (m *Manager) clock() time.Duration {
	if m.Now == nil {
		return 0
	}
	return m.Now()
}

// New creates an empty lock table.
func New() *Manager {
	return &Manager{
		entries: make(map[message.Key]*entry),
		held:    make(map[message.TxnID][]message.Key),
		waiting: make(map[message.TxnID]map[message.Key]int),
	}
}

// newEntry takes an entry off the free list, or allocates one.
func (m *Manager) newEntry() *entry {
	n := len(m.freeEntries)
	if n == 0 {
		return &entry{}
	}
	e := m.freeEntries[n-1]
	m.freeEntries[n-1] = nil
	m.freeEntries = m.freeEntries[:n-1]
	return e
}

// freeEntry recycles an entry that has no holders and no queue. The queue's
// backing array is dropped: it still references the granted waiters'
// callbacks.
func (m *Manager) freeEntry(e *entry) {
	if len(m.freeEntries) >= maxFree {
		return
	}
	e.queue = nil
	if cap(e.holders) > maxRecycledLen {
		e.holders = nil
	}
	m.freeEntries = append(m.freeEntries, e)
}

// addHeld records that txn now holds key.
func (m *Manager) addHeld(txn message.TxnID, key message.Key) {
	keys, ok := m.held[txn]
	if !ok {
		if n := len(m.freeHeld); n > 0 {
			keys = m.freeHeld[n-1]
			m.freeHeld[n-1] = nil
			m.freeHeld = m.freeHeld[:n-1]
		}
	}
	m.held[txn] = append(keys, key)
}

// recycleKeys clears keys and returns it empty for reuse, or nil when it
// outgrew maxRecycledLen.
func recycleKeys(keys []message.Key) []message.Key {
	if cap(keys) > maxRecycledLen {
		return nil
	}
	clear(keys)
	return keys[:0]
}

func (m *Manager) noteWait(txn message.TxnID, key message.Key) {
	wm := m.waiting[txn]
	if wm == nil {
		wm = make(map[message.Key]int)
		m.waiting[txn] = wm
	}
	wm[key]++
}

func (m *Manager) dropWait(txn message.TxnID, key message.Key) {
	wm := m.waiting[txn]
	if wm == nil {
		return
	}
	if wm[key]--; wm[key] <= 0 {
		delete(wm, key)
	}
	if len(wm) == 0 {
		delete(m.waiting, txn)
	}
}

func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Acquire requests a lock. If wait is false a conflicting request returns
// Conflict immediately and changes nothing; otherwise it is queued FIFO and
// grant is invoked when the lock is eventually granted (grant may be nil for
// non-waiting callers). Re-acquiring a held lock in the same or weaker mode
// returns Granted; holding Shared and requesting Exclusive upgrades when the
// transaction is the sole holder and no exclusive waiter precedes it.
func (m *Manager) Acquire(txn message.TxnID, key message.Key, mode Mode, wait bool, grant func()) Result {
	e := m.entries[key]
	if e == nil {
		e = m.newEntry()
		m.entries[key] = e
	}
	if i := e.holderIndex(txn); i >= 0 {
		if e.holders[i].mode >= mode {
			return Granted // already held strongly enough
		}
		// Upgrade S -> X: allowed only as sole holder.
		if len(e.holders) == 1 {
			e.holders[i].mode = Exclusive
			return Granted
		}
	} else if len(e.queue) == 0 && e.compatibleWith(mode) {
		// FIFO fairness: a new request never overtakes queued waiters.
		e.holders = append(e.holders, holder{txn: txn, mode: mode})
		m.addHeld(txn, key)
		return Granted
	}
	if !wait {
		return Conflict
	}
	e.queue = append(e.queue, waiter{txn: txn, mode: mode, grant: grant, at: m.clock()})
	m.noteWait(txn, key)
	return Queued
}

// ReleaseAll releases every lock held by txn and removes it from every wait
// queue, then grants newly compatible waiters, key by key in sorted order.
// Grant callbacks fire after the table is consistent.
//
// Order matters: the transaction's queued requests must be purged BEFORE
// its holds are released — otherwise promoting a key it both held and
// queued an upgrade on would re-grant the dying transaction.
func (m *Manager) ReleaseAll(txn message.TxnID) {
	touched := m.scratch
	for key := range m.waiting[txn] {
		e := m.entries[key]
		if e == nil {
			continue
		}
		out := e.queue[:0]
		for _, w := range e.queue {
			if w.txn == txn {
				continue
			}
			out = append(out, w)
		}
		e.queue = out
		touched = append(touched, key)
	}
	delete(m.waiting, txn)
	if keys, ok := m.held[txn]; ok {
		for _, key := range keys {
			if e := m.entries[key]; e != nil {
				if i := e.holderIndex(txn); i >= 0 {
					e.holders = slices.Delete(e.holders, i, i+1)
				}
				touched = append(touched, key)
			}
		}
		delete(m.held, txn)
		if keys = recycleKeys(keys); keys != nil && len(m.freeHeld) < maxFree {
			m.freeHeld = append(m.freeHeld, keys)
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	var grants []func()
	for _, key := range touched {
		if e := m.entries[key]; e != nil {
			grants = m.promote(key, e, grants)
		}
	}
	m.scratch = recycleKeys(touched)
	for _, g := range grants {
		g()
	}
}

// promote grants queue heads while they are compatible with the holders,
// and recycles the entry once nothing holds or waits on it.
func (m *Manager) promote(key message.Key, e *entry, grants []func()) []func() {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if i := e.holderIndex(w.txn); i >= 0 {
			// Queued upgrade: grant when sole holder.
			if e.holders[i].mode < w.mode && len(e.holders) > 1 {
				return grants
			}
			// A grant never lowers a held mode: a transaction holding X
			// from an earlier queued request keeps X when its queued S
			// request reaches the head.
			e.holders[i].mode = max(e.holders[i].mode, w.mode)
		} else {
			if !e.compatibleWith(w.mode) {
				return grants
			}
			e.holders = append(e.holders, holder{txn: w.txn, mode: w.mode})
			m.addHeld(w.txn, key)
		}
		m.dropWait(w.txn, key)
		e.queue = e.queue[1:]
		m.Tracer.Interval(w.txn, trace.KindLockWait, w.at, 0, trace.NoPeer, int64(w.mode))
		if w.grant != nil {
			grants = append(grants, w.grant)
		}
	}
	if len(e.holders) == 0 {
		delete(m.entries, key)
		m.freeEntry(e)
	}
	return grants
}

// Holders returns the transactions holding key, sorted for determinism.
func (m *Manager) Holders(key message.Key) []message.TxnID {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	out := make([]message.TxnID, 0, len(e.holders))
	for _, h := range e.holders {
		out = append(out, h.txn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HolderMode returns the mode txn holds on key, or 0.
func (m *Manager) HolderMode(txn message.TxnID, key message.Key) Mode {
	if e := m.entries[key]; e != nil {
		if i := e.holderIndex(txn); i >= 0 {
			return e.holders[i].mode
		}
	}
	return 0
}

// ConflictingHolders returns the transactions other than txn whose hold on
// key is incompatible with mode, sorted for determinism. The replication
// engines consult it to decide negative acknowledgements and wounds.
func (m *Manager) ConflictingHolders(txn message.TxnID, key message.Key, mode Mode) []message.TxnID {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	var out []message.TxnID
	for _, h := range e.holders {
		if h.txn != txn && !compatible(h.mode, mode) {
			out = append(out, h.txn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ConflictingWaiters returns the transactions other than txn queued on key
// whose requests are incompatible with mode, sorted for determinism. A
// wound-wait requester must consider these too: they will be granted ahead
// of it (FIFO), so an older requester behind a younger waiter would
// otherwise wait on a younger transaction unwounded.
func (m *Manager) ConflictingWaiters(txn message.TxnID, key message.Key, mode Mode) []message.TxnID {
	e := m.entries[key]
	if e == nil {
		return nil
	}
	var out []message.TxnID
	for _, w := range e.queue {
		if w.txn != txn && !compatible(w.mode, mode) && !slices.Contains(out, w.txn) {
			out = append(out, w.txn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HeldKeys returns the keys txn holds, sorted.
func (m *Manager) HeldKeys(txn message.TxnID) []message.Key {
	out := slices.Clone(m.held[txn])
	slices.Sort(out)
	return out
}

// Locks returns the total number of held (txn, key) pairs, a leak metric.
func (m *Manager) Locks() int {
	n := 0
	for _, keys := range m.held {
		n += len(keys)
	}
	return n
}

// Waiters returns the total queued requests.
func (m *Manager) Waiters() int {
	n := 0
	for _, e := range m.entries {
		n += len(e.queue)
	}
	return n
}

// WaitsFor returns the waits-for edges of the current table: each queued
// request waits for every incompatible holder and for every earlier queued
// incompatible request. Keys are visited in sorted order and holders in
// grant order, so the same table always yields the same edge lists.
func (m *Manager) WaitsFor() map[message.TxnID][]message.TxnID {
	keys := make([]message.Key, 0, len(m.entries))
	for key, e := range m.entries {
		if len(e.queue) > 0 {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	g := make(map[message.TxnID][]message.TxnID)
	for _, key := range keys {
		e := m.entries[key]
		for qi, w := range e.queue {
			for _, h := range e.holders {
				if h.txn != w.txn && !compatible(h.mode, w.mode) {
					g[w.txn] = append(g[w.txn], h.txn)
				}
			}
			for _, prev := range e.queue[:qi] {
				if prev.txn != w.txn && !compatible(prev.mode, w.mode) {
					g[w.txn] = append(g[w.txn], prev.txn)
				}
			}
		}
	}
	return g
}

// DetectDeadlock returns one cycle of the waits-for graph, or nil.
func (m *Manager) DetectDeadlock() []message.TxnID {
	g := m.WaitsFor()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[message.TxnID]int)
	var stack []message.TxnID
	var cycle []message.TxnID
	var dfs func(t message.TxnID) bool
	dfs = func(t message.TxnID) bool {
		color[t] = grey
		stack = append(stack, t)
		for _, u := range g[t] {
			switch color[u] {
			case grey:
				// Found a cycle: slice the stack from u.
				for i, s := range stack {
					if s == u {
						cycle = append(cycle, stack[i:]...)
						return true
					}
				}
			case white:
				if dfs(u) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[t] = black
		return false
	}
	nodes := make([]message.TxnID, 0, len(g))
	for t := range g {
		nodes = append(nodes, t)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	for _, t := range nodes {
		if color[t] == white && dfs(t) {
			return cycle
		}
	}
	return nil
}
