package core

import (
	"sort"

	"repro/internal/broadcast"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// lockedProtocol is what a lock-based engine adds to the shared core: the
// two places where protocols R, C and the ROWA baseline differ (how the
// home site learns that every site processed its writes, and how commit is
// decided).
type lockedProtocol interface {
	// startCommit runs the commit protocol for a transaction that wrote,
	// once the client has asked to commit it.
	startCommit(tx *Tx)
	// abortLocal aborts a home transaction, telling every site that may
	// hold state for it.
	abortLocal(tx *Tx, reason AbortReason)
}

// lockedReplica is the core of the lock-based engines, protocols R and C
// and the ROWA baseline: read-one write-all under strict two-phase
// locking. It owns the client API around the two variation points, the
// replica-side transaction records, never-wait staging, the per-operation
// acknowledgement pipeline and the commit install.
type lockedReplica struct {
	*base
	proto  lockedProtocol
	stack  *broadcast.Stack // nil for the baseline, which unicasts
	remote map[message.TxnID]*rtxn
}

// rtxn is the record a lock-based engine keeps at every site for one update
// transaction: the writes staged under its exclusive locks, and the
// pipeline entry that installs them, kept here so a commit allocates no
// entry slice.
type rtxn struct {
	id     message.TxnID
	staged []message.KV
	doomed bool
	entry  [1]commitpipe.Entry

	// Protocol R's abort tombstone and vote tally.
	seenOps int
	nOps    int // write count announced by an abort decision; -1 = unknown
	decided bool
	votes   []siteVote // first vote of each site, in arrival order
}

// newLockedReplica builds the core for proto. onViewChange runs after each
// installed view (nil: none). deliver, when set, receives the deliveries
// of a broadcast stack seeded from Config.InitialStack; the stack's
// frontiers are checkpointed beside the store.
func newLockedReplica(rt env.Runtime, cfg Config, name string, proto lockedProtocol, onViewChange func(old, installed message.View), deliver func(broadcast.Delivery)) lockedReplica {
	l := lockedReplica{
		base:   newBase(rt, cfg, name),
		proto:  proto,
		remote: make(map[message.TxnID]*rtxn),
	}
	l.initViews(onViewChange)
	if deliver == nil {
		l.initCheckpoint(nil)
		return l
	}
	l.stack = broadcast.New(rt, broadcast.Config{
		Deliver:          deliver,
		Relay:            cfg.Relay,
		Members:          l.members,
		Tracer:           cfg.Tracer,
		HistoryRetention: cfg.HistoryRetention,
	})
	if cfg.InitialStack != nil {
		l.stack.ImportSync(cfg.InitialStack)
	}
	l.initCheckpoint(l.stack.ExportSync)
	return l
}

// Begin implements Engine.
func (l *lockedReplica) Begin(readOnly bool) *Tx { return l.begin(readOnly) }

// Read implements Engine.
func (l *lockedReplica) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	l.lockingRead(tx, key, cb)
}

// Commit implements Engine. A transaction that wrote nothing commits
// locally: no messages, no votes, never aborted.
func (l *lockedReplica) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		l.locks.ReleaseAll(tx.ID)
		l.finish(tx, Committed, ReasonNone)
		return
	}
	l.proto.startCommit(tx)
}

// Abort implements Engine. Once Commit has been requested the outcome is
// in the hands of the commit protocol and the call is ignored.
func (l *lockedReplica) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	l.proto.abortLocal(tx, ReasonClient)
}

// abortAllLocal aborts every home transaction, in id order: the site left
// the primary partition.
func (l *lockedReplica) abortAllLocal() {
	for _, tx := range sortedTxns(l.local) {
		l.proto.abortLocal(tx, ReasonNotPrimary)
	}
}

// rtxn returns the replica record of id, creating it on first sight.
func (l *lockedReplica) rtxn(id message.TxnID) *rtxn {
	r := l.remote[id]
	if r == nil {
		r = &rtxn{id: id, nOps: -1}
		l.remote[id] = r
	}
	return r
}

// remoteSnapshot returns the replica records in transaction order, so a
// sweep that releases locks (resuming queued reads) or broadcasts runs
// identically in every seeded run.
func (l *lockedReplica) remoteSnapshot() []*rtxn {
	out := make([]*rtxn, 0, len(l.remote))
	for _, r := range l.remote {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Less(out[j].id) })
	return out
}

// memberSet returns the current view's members as a set.
func (l *lockedReplica) memberSet() map[message.SiteID]bool {
	members := make(map[message.SiteID]bool)
	for _, s := range l.members() {
		members[s] = true
	}
	return members
}

// stage locks writes for r all-or-none under the never-wait rule: every
// exclusive lock granted at once stages the writes; the first conflict
// discards r and returns the refused key.
func (l *lockedReplica) stage(r *rtxn, writes []message.KV) (refused message.Key, ok bool) {
	for _, w := range writes {
		if l.locks.Acquire(r.id, w.Key, lockExclusive, false, nil) != lockGranted {
			l.discard(r)
			return w.Key, false
		}
	}
	r.staged = append(r.staged, writes...)
	return "", true
}

// discard dooms r and releases its locks and staged writes.
func (l *lockedReplica) discard(r *rtxn) {
	r.doomed = true
	r.staged = nil
	l.locks.ReleaseAll(r.id)
}

// commitReplica feeds a decided commit through the shared pipeline:
// install r's staged writes at the next local commit index, release its
// locks and record once the versions are visible, and — at the home site,
// the only one where a client waits — acknowledge the client once the
// commit is durable under the group-commit policy, or tell it the commit
// is not durable here.
func (l *lockedReplica) commitReplica(r *rtxn) {
	r.entry[0] = commitpipe.Entry{Writes: r.staged}
	t := commitpipe.Txn{ID: r.id, Entries: r.entry[:], Applied: func() {
		l.locks.ReleaseAll(r.id)
		delete(l.remote, r.id)
	}}
	if tx := l.local[r.id]; tx != nil {
		t.Ack = func(durable bool) {
			if durable {
				l.finish(tx, Committed, ReasonNone)
			} else {
				l.finish(tx, Aborted, ReasonStorage)
			}
		}
	}
	l.pipe.Submit(t)
}

// sendOp opens the acknowledgement round of tx's next write operation
// (seq, carrying n writes): every member must acknowledge it before the
// pipeline moves on. The caller sends the operation next; its local
// delivery may acknowledge synchronously, so the round is set up first.
func (l *lockedReplica) sendOp(tx *Tx, seq uint64, n int64) {
	tx.opInFlight = true
	tx.ackWait = append(tx.ackWait[:0], l.members()...)
	tx.opSentAt = l.rt.Now()
	l.tr.Point(tx.ID, trace.KindWriteSend, seq, l.rt.ID(), n)
}

// acked applies one site's acknowledgement of the in-flight write
// operation of a home transaction: a refusal aborts the transaction, and
// the last acknowledgement closes the round. It returns the transaction
// whose round closed, for the engine to send what comes next, or nil.
// batched pipelines send the whole write set as operation 0.
func (l *lockedReplica) acked(a message.WriteAck, batched bool) *Tx {
	tx := l.local[a.Txn]
	if tx == nil || tx.state == txDone || !tx.opInFlight {
		return nil
	}
	want := tx.nextOp + 1
	if batched {
		want = 0
	}
	if a.OpSeq != want {
		return nil
	}
	ok := int64(0)
	if a.OK {
		ok = 1
	}
	l.tr.Point(a.Txn, trace.KindAck, uint64(a.OpSeq), a.By, ok)
	if !a.OK {
		l.proto.abortLocal(tx, ReasonWriteConflict)
		return nil
	}
	tx.ackWait = dropSite(tx.ackWait, a.By)
	if len(tx.ackWait) > 0 {
		return nil
	}
	l.tr.Interval(tx.ID, trace.KindAckWait, tx.opSentAt, uint64(a.OpSeq), l.rt.ID(), 0)
	tx.opInFlight = false
	tx.nextOp++
	return tx
}

// opsSent counts the write operations of tx that left this site, so an
// abort knows whether other sites hold state for it. A batched pipeline
// sends at most one, and moves nextOp past the write set when it does.
func opsSent(tx *Tx, batched bool) int {
	switch {
	case batched && tx.nextOp > 0:
		return 1
	case batched:
		return 0
	case tx.opInFlight:
		return tx.nextOp + 1
	}
	return tx.nextOp
}

// Broadcasts exposes the stack's per-class delivery counters (tests); nil
// for the baseline.
func (l *lockedReplica) Broadcasts() map[message.Class]int64 {
	if l.stack == nil {
		return nil
	}
	return l.stack.Deliveries
}

// PendingRemote returns the number of replica-side transaction records
// still held (leak oracle for tests).
func (l *lockedReplica) PendingRemote() int { return len(l.remote) }
