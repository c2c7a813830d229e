package core

import (
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// BaselineEngine implements the classical point-to-point read-one write-all
// protocol the paper starts from: every write operation is unicast to every
// site and the transaction blocks until all sites acknowledge it; locks
// block on conflict (wound-wait keeps the blocking deadlock-free); and
// commitment is a centralized two-phase commit — prepare, votes to the
// coordinator, decision. It unicasts protocol R's messages (WriteReq,
// WriteAck, then VoteReq as the prepare, Vote and Decision). It exists as
// the measured baseline for the broadcast protocols' message and latency
// comparisons.
type BaselineEngine struct {
	lockedReplica
}

var _ Engine = (*BaselineEngine)(nil)

// NewBaseline creates a baseline engine on rt.
func NewBaseline(rt env.Runtime, cfg Config) *BaselineEngine {
	e := &BaselineEngine{}
	// The baseline runs without the broadcast stack; views are still
	// available for failure experiments.
	e.lockedReplica = newLockedReplica(rt, cfg, "baseline", e, nil, nil)
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
	case *message.WriteReq:
		e.onWrite(t)
	case *message.WriteAck:
		e.onAck(*t)
	case *message.Wound:
		e.onWound(t)
	case *message.VoteReq:
		e.onPrepare(from, t)
	case *message.Vote:
		e.onVote(t)
	case *message.Decision:
		e.onDecision(t)
	default:
		e.rt.Logf("baseline: unexpected %v from %v", m.Kind(), from)
	}
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
		w := &message.WriteReq{Txn: tx.ID, OpSeq: tx.nextOp + 1, Key: op.Key, Value: op.Value}
		e.sendOp(tx, uint64(w.OpSeq), 1)
		e.sendOthers(w)
		e.onWrite(w) // local replica processes the same operation
		return
	}
	if tx.state == txCommitWait {
		// Centralized 2PC phase one.
		tx.commitAt = e.rt.Now()
		e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
		e.sendOthers(&message.VoteReq{Txn: tx.ID})
		tx.ackWait = dropSite(append(tx.ackWait[:0], e.members()...), e.rt.ID())
		if len(tx.ackWait) == 0 {
			e.decide(tx, true)
		}
	}
}

// startCommit runs centralized 2PC once every write is acknowledged.
func (e *BaselineEngine) startCommit(tx *Tx) {
	tx.state = txCommitWait
	e.pump(tx)
}

// abortLocal spreads the abort decision to every site that may hold state.
func (e *BaselineEngine) abortLocal(tx *Tx, reason AbortReason) {
	if tx.state == txDone {
		return
	}
	if opsSent(tx, false) > 0 {
		e.announce(&message.Decision{Txn: tx.ID, Commit: false})
	} else {
		e.locks.ReleaseAll(tx.ID)
	}
	e.finish(tx, Aborted, reason)
}

// Read implements Engine, adding the wound-wait rule to the shared locking
// read: an old reader must not silently wait behind a young writer, or
// waits-for cycles become possible across sites.
func (e *BaselineEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if tx.state == txActive && !tx.wrote {
		e.woundYounger(tx.ID, key, lockShared, e.wound)
	}
	e.lockingRead(tx, key, cb)
}

// onWrite acquires the exclusive lock, blocking on conflict. Wound-wait
// keeps the blocking safe: an older requester wounds every younger
// transaction it would wait behind, then waits for the lock.
func (e *BaselineEngine) onWrite(w *message.WriteReq) {
	r := e.rtxn(w.Txn)
	if r.doomed {
		return
	}
	e.woundYounger(w.Txn, w.Key, lockExclusive, e.wound)
	grant := func() {
		rr := e.remote[w.Txn]
		if rr == nil || rr.doomed {
			return
		}
		rr.staged = append(rr.staged, message.KV{Key: w.Key, Value: w.Value})
		e.sendAck(message.WriteAck{Txn: w.Txn, OpSeq: w.OpSeq, By: e.rt.ID(), OK: true})
	}
	if e.locks.Acquire(w.Txn, w.Key, lockExclusive, true, grant) == lockGranted {
		grant()
	}
}

// sendAck sends an acknowledgement to the home site, short-circuiting when
// this site is the home. Only the message that leaves the site is boxed.
func (e *BaselineEngine) sendAck(a message.WriteAck) {
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
	e.abortLocal(tx, ReasonWounded)
}

// onAck advances the home site's write pipeline.
func (e *BaselineEngine) onAck(a message.WriteAck) {
	if tx := e.acked(a, false); tx != nil {
		e.pump(tx)
	}
}

// onPrepare votes to the coordinator (phase one of centralized 2PC).
func (e *BaselineEngine) onPrepare(from message.SiteID, p *message.VoteReq) {
	yes := !e.rtxn(p.Txn).doomed
	e.rt.Send(from, &message.Vote{Txn: p.Txn, By: e.rt.ID(), Yes: yes})
}

// onVote collects votes at the coordinator.
func (e *BaselineEngine) onVote(v *message.Vote) {
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
	e.announce(&message.Decision{Txn: tx.ID, Commit: commit})
	if !commit {
		e.finish(tx, Aborted, ReasonViewChange)
	}
}

// announce unicasts a decision to every participant and applies it here.
func (e *BaselineEngine) announce(d *message.Decision) {
	e.sendOthers(d)
	e.onDecision(d)
}

// sendOthers unicasts m to every other member of the view.
func (e *BaselineEngine) sendOthers(m message.Message) {
	for _, s := range e.members() {
		if s != e.rt.ID() {
			e.rt.Send(s, m)
		}
	}
}

// onDecision applies or discards the staged writes at a participant.
func (e *BaselineEngine) onDecision(d *message.Decision) {
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
		e.commitReplica(r)
		return
	}
	e.discard(r)
	delete(e.remote, d.Txn)
}
