package core

import (
	"repro/internal/env"
	"repro/internal/lockmgr"
	"repro/internal/message"
	"repro/internal/trace"
)

// BaselineEngine implements the classical point-to-point read-one write-all
// protocol the paper starts from: every write operation is unicast to every
// site and the transaction blocks until all sites acknowledge it; locks
// block on conflict (wound-wait keeps the blocking deadlock-free); and
// commitment is a centralized two-phase commit — prepare, votes to the
// coordinator, decision. It exists as the measured baseline for the
// broadcast protocols' message and latency comparisons.
type BaselineEngine struct {
	*base
	remote map[message.TxnID]*rtxnB
}

// rtxnB is a site's replica-side state for one update transaction.
type rtxnB struct {
	replica
	voted bool
}

var _ Engine = (*BaselineEngine)(nil)

// NewBaseline creates a baseline engine on rt.
func NewBaseline(rt env.Runtime, cfg Config) *BaselineEngine {
	e := &BaselineEngine{
		base:   newBase(rt, cfg, "baseline"),
		remote: make(map[message.TxnID]*rtxnB),
	}
	// The baseline runs without the broadcast stack; views are still
	// available for failure experiments.
	e.initViews(nil)
	e.initCheckpoint(nil)
	return e
}

// Start implements env.Node.
func (e *BaselineEngine) Start() { e.start() }

// Receive implements env.Node.
func (e *BaselineEngine) Receive(from message.SiteID, m message.Message) {
	if e.receiveFailure(from, m) {
		return
	}
	switch t := m.(type) {
	case *message.UWrite:
		e.onUWrite(t)
	case *message.UWriteAck:
		e.onAck(*t)
	case *message.Wound:
		e.onWound(t)
	case *message.Prepare:
		e.onPrepare(from, t)
	case *message.PrepareVote:
		e.onVote(t)
	case *message.PDecision:
		e.onDecision(t)
	default:
		e.rt.Logf("baseline: unexpected %v from %v", m.Kind(), from)
	}
}

// Begin implements Engine.
func (e *BaselineEngine) Begin(readOnly bool) *Tx { return e.begin(readOnly) }

// Read implements Engine.
func (e *BaselineEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	e.readWithWounds(tx, key, cb)
}

// Write implements Engine: unicast to every site, one operation in flight
// at a time, blocking until all sites acknowledge (the classical ROWA
// write).
func (e *BaselineEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	if err := e.bufferWrite(tx, key, val); err != nil {
		return err
	}
	e.pump(tx)
	return nil
}

func (e *BaselineEngine) pump(tx *Tx) {
	if tx.state == txDone || tx.opInFlight {
		return
	}
	if tx.nextOp < len(tx.writes) {
		op := tx.writes[tx.nextOp]
		tx.opInFlight = true
		tx.ackWait = append(tx.ackWait[:0], e.members()...)
		w := &message.UWrite{Txn: tx.ID, OpSeq: tx.nextOp + 1, Key: op.Key, Value: op.Value}
		tx.opSentAt = e.rt.Now()
		e.tr.Point(tx.ID, trace.KindWriteSend, uint64(w.OpSeq), e.rt.ID(), 1)
		for _, s := range e.members() {
			if s == e.rt.ID() {
				continue
			}
			e.rt.Send(s, w)
		}
		e.onUWrite(w) // local replica processes the same operation
		return
	}
	if tx.state == txCommitWait {
		// Centralized 2PC phase one.
		tx.commitAt = e.rt.Now()
		e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
		for _, s := range e.members() {
			if s == e.rt.ID() {
				continue
			}
			e.rt.Send(s, &message.Prepare{Txn: tx.ID})
		}
		r := e.rtxn(tx.ID)
		r.voted = true // coordinator's own vote
		tx.ackWait = tx.ackWait[:0]
		for _, s := range e.members() {
			if s != e.rt.ID() {
				tx.ackWait = append(tx.ackWait, s)
			}
		}
		if len(tx.ackWait) == 0 {
			e.decide(tx, true)
		}
	}
}

// Commit implements Engine.
func (e *BaselineEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		e.locks.ReleaseAll(tx.ID)
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	e.pump(tx)
}

// Abort implements Engine.
func (e *BaselineEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	e.abortGlobal(tx, ReasonClient)
}

// abortGlobal spreads the abort decision to every site that may hold state.
func (e *BaselineEngine) abortGlobal(tx *Tx, reason AbortReason) {
	if tx.state == txDone {
		return
	}
	opsSent := tx.nextOp
	if tx.opInFlight {
		opsSent++
	}
	if opsSent > 0 {
		d := &message.PDecision{Txn: tx.ID, Commit: false}
		for _, s := range e.members() {
			if s == e.rt.ID() {
				continue
			}
			e.rt.Send(s, d)
		}
		e.onDecision(d)
	} else {
		e.locks.ReleaseAll(tx.ID)
	}
	e.finish(tx, Aborted, reason)
}

func (e *BaselineEngine) rtxn(id message.TxnID) *rtxnB {
	r := e.remote[id]
	if r == nil {
		r = &rtxnB{replica: replica{id: id}}
		e.remote[id] = r
	}
	return r
}

// woundYounger applies the wound-wait rule for a request: every younger
// transaction the request would wait behind — current holders and
// already-queued incompatible waiters — is wounded (its home site aborts it
// globally). Older ones are waited for.
func (e *BaselineEngine) woundYounger(requester message.TxnID, key message.Key, mode lockmgr.Mode) {
	for _, other := range e.locks.ConflictingHolders(requester, key, mode) {
		if requester.Less(other) {
			e.wound(other)
		}
	}
	for _, other := range e.locks.ConflictingWaiters(requester, key, mode) {
		if requester.Less(other) {
			e.wound(other)
		}
	}
}

// Read implements Engine, adding the wound-wait rule to the shared locking
// read: an old reader must not silently wait behind a young writer, or
// waits-for cycles become possible across sites.
func (e *BaselineEngine) readWithWounds(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if tx.state == txActive && !tx.wrote {
		e.woundYounger(tx.ID, key, lockShared)
	}
	e.lockingRead(tx, key, cb)
}

// onUWrite acquires the exclusive lock, blocking on conflict. Wound-wait
// keeps the blocking safe: an older requester wounds every younger
// transaction it would wait behind, then waits for the lock.
func (e *BaselineEngine) onUWrite(w *message.UWrite) {
	r := e.rtxn(w.Txn)
	if r.doomed {
		return
	}
	e.woundYounger(w.Txn, w.Key, lockExclusive)
	grant := func() {
		rr := e.remote[w.Txn]
		if rr == nil || rr.doomed {
			return
		}
		rr.staged = append(rr.staged, message.KV{Key: w.Key, Value: w.Value})
		e.sendAck(message.UWriteAck{Txn: w.Txn, OpSeq: w.OpSeq, By: e.rt.ID(), OK: true})
	}
	if e.locks.Acquire(w.Txn, w.Key, lockExclusive, true, grant) == lockGranted {
		grant()
	}
}

// sendAck sends an acknowledgement to the home site, short-circuiting when
// this site is the home. Only the message that leaves the site is boxed.
func (e *BaselineEngine) sendAck(a message.UWriteAck) {
	if a.Txn.Site == e.rt.ID() {
		e.onAck(a)
		return
	}
	out := a // boxing &a instead would move a to the heap on the self path too
	e.rt.Send(a.Txn.Site, &out)
}

// wound notifies a younger transaction's home site to abort it.
func (e *BaselineEngine) wound(victim message.TxnID) {
	if victim.Site == e.rt.ID() {
		e.onWound(&message.Wound{Txn: victim, By: e.rt.ID()})
		return
	}
	e.rt.Send(victim.Site, &message.Wound{Txn: victim, By: e.rt.ID()})
}

// onWound aborts a local transaction unless its fate is already sealed by
// the commit protocol.
func (e *BaselineEngine) onWound(w *message.Wound) {
	tx := e.local[w.Txn]
	if tx == nil || tx.state == txDone {
		return
	}
	if tx.state == txCommitWait && tx.nextOp >= len(tx.writes) && !tx.opInFlight {
		// Prepare already sent; the vote round settles it. (Participants
		// keep holding the lock meanwhile; the wounding requester is older
		// and keeps waiting, which is safe because this transaction will
		// decide promptly.)
		return
	}
	e.abortGlobal(tx, ReasonWounded)
}

// onAck advances the home site's write pipeline.
func (e *BaselineEngine) onAck(a message.UWriteAck) {
	tx := e.local[a.Txn]
	if tx == nil || tx.state == txDone || !tx.opInFlight || a.OpSeq != tx.nextOp+1 {
		return
	}
	okBit := int64(0)
	if a.OK {
		okBit = 1
	}
	e.tr.Point(tx.ID, trace.KindAck, uint64(a.OpSeq), a.By, okBit)
	if !a.OK {
		e.abortGlobal(tx, ReasonWriteConflict)
		return
	}
	tx.ackWait = dropSite(tx.ackWait, a.By)
	if len(tx.ackWait) == 0 {
		e.tr.Interval(tx.ID, trace.KindAckWait, tx.opSentAt, uint64(a.OpSeq), e.rt.ID(), 0)
		tx.opInFlight = false
		tx.nextOp++
		e.pump(tx)
	}
}

// onPrepare votes to the coordinator (phase one of centralized 2PC).
func (e *BaselineEngine) onPrepare(from message.SiteID, p *message.Prepare) {
	r := e.rtxn(p.Txn)
	yes := !r.doomed
	r.voted = true
	e.rt.Send(from, &message.PrepareVote{Txn: p.Txn, By: e.rt.ID(), Yes: yes})
}

// onVote collects votes at the coordinator.
func (e *BaselineEngine) onVote(v *message.PrepareVote) {
	tx := e.local[v.Txn]
	if tx == nil || tx.state != txCommitWait {
		return
	}
	yesBit := int64(0)
	if v.Yes {
		yesBit = 1
	}
	e.tr.Point(tx.ID, trace.KindVote, 0, v.By, yesBit)
	if !v.Yes {
		e.decide(tx, false)
		return
	}
	tx.ackWait = dropSite(tx.ackWait, v.By)
	if len(tx.ackWait) == 0 {
		e.decide(tx, true)
	}
}

// decide is phase two: the coordinator's decision, unicast to every
// participant and applied locally. Commits finish through the pipeline's
// durability ack inside onDecision; aborts finish immediately.
func (e *BaselineEngine) decide(tx *Tx, commit bool) {
	d := &message.PDecision{Txn: tx.ID, Commit: commit}
	for _, s := range e.members() {
		if s == e.rt.ID() {
			continue
		}
		e.rt.Send(s, d)
	}
	e.onDecision(d)
	if !commit {
		e.finish(tx, Aborted, ReasonViewChange)
	}
}

// onDecision applies or discards the staged writes at a participant.
func (e *BaselineEngine) onDecision(d *message.PDecision) {
	r := e.remote[d.Txn]
	if r == nil {
		// No staged record (read-only at this site); the coordinator still
		// owes its client an answer.
		if d.Commit {
			if tx := e.local[d.Txn]; tx != nil {
				e.finish(tx, Committed, ReasonNone)
			}
		}
		return
	}
	if d.Commit {
		e.commitPipelined(&r.replica, func() {
			e.locks.ReleaseAll(d.Txn)
			delete(e.remote, d.Txn)
		})
		return
	}
	r.doomed = true
	e.locks.ReleaseAll(d.Txn)
	delete(e.remote, d.Txn)
}

// PendingRemote returns the number of replica-side transaction records
// still held (leak oracle for tests).
func (e *BaselineEngine) PendingRemote() int { return len(e.remote) }
