package core

import (
	"slices"

	"repro/internal/broadcast"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/trace"
)

// ReliableEngine implements protocol R: write operations travel by reliable
// broadcast, one at a time, each explicitly acknowledged by every site in
// the view (a conflicting write is refused with a negative acknowledgement
// and aborts the transaction — the never-wait rule that makes the protocol
// deadlock-free). Commitment is a decentralized two-phase commit [Ske82]:
// the home site broadcasts a vote request, every site broadcasts its vote
// to every site, and each site commits the transaction locally once it has
// tallied yes-votes from the whole view. Read-only transactions run
// entirely at their home site and never broadcast or abort.
type ReliableEngine struct {
	lockedReplica
}

// siteVote is one site's vote in protocol R's decentralized commit.
type siteVote struct {
	site message.SiteID
	yes  bool
}

// vote returns site's vote on r, if it has arrived.
func (r *rtxn) vote(site message.SiteID) (yes, ok bool) {
	for _, v := range r.votes {
		if v.site == site {
			return v.yes, true
		}
	}
	return false, false
}

var _ Engine = (*ReliableEngine)(nil)

// NewReliable creates a protocol R engine on rt.
func NewReliable(rt env.Runtime, cfg Config) *ReliableEngine {
	e := &ReliableEngine{}
	e.lockedReplica = newLockedReplica(rt, cfg, "reliable", e, e.onViewChange, e.deliver)
	return e
}

// Start implements env.Node.
func (e *ReliableEngine) Start() { e.start() }

// Receive implements env.Node.
func (e *ReliableEngine) Receive(from message.SiteID, m message.Message) {
	switch {
	case e.receiveFailure(from, m):
		// Liveness and view changes, handled.
	case broadcast.Handles(m):
		e.stack.Handle(from, m)
	case m.Kind() == message.KindWriteAck:
		e.onWriteAck(*m.(*message.WriteAck))
	default:
		e.rt.Logf("reliable: unexpected %v from %v", m.Kind(), from)
	}
}

// Write implements Engine. The write set is broadcast in one WriteBatch
// at commit. Under Config.PerOpWrites, the paper's arm, each write
// operation is broadcast as it is staged and the transaction blocks until
// every site has acknowledged it; the engine realizes that as a
// one-op-in-flight pipeline.
func (e *ReliableEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	if err := e.bufferWrite(tx, key, val); err != nil {
		return err
	}
	if e.cfg.PerOpWrites {
		e.pump(tx)
	}
	return nil
}

// pump advances the transaction's write pipeline: broadcast the next write
// when none is in flight, or start the vote phase when all writes are
// acknowledged and commit was requested.
func (e *ReliableEngine) pump(tx *Tx) {
	switch {
	case tx.state == txDone || tx.opInFlight:
	case tx.nextOp >= len(tx.writes):
		if tx.state == txCommitWait {
			e.stack.Broadcast(message.ClassReliable, &message.VoteReq{Txn: tx.ID})
		}
	case !e.cfg.PerOpWrites:
		// One batch broadcast covers the whole write set; a single
		// all-sites acknowledgement round follows.
		batch := &message.WriteBatch{Txn: tx.ID, Writes: message.DedupWrites(tx.writes)}
		tx.nextOp = len(tx.writes)
		e.sendOp(tx, 0, int64(len(batch.Writes)))
		e.stack.Broadcast(message.ClassReliable, batch)
	default:
		op := tx.writes[tx.nextOp]
		e.sendOp(tx, uint64(tx.nextOp+1), 1)
		e.stack.Broadcast(message.ClassReliable, &message.WriteReq{
			Txn: tx.ID, OpSeq: tx.nextOp + 1, Key: op.Key, Value: op.Value,
		})
	}
}

// startCommit starts the vote phase once every write is acknowledged.
func (e *ReliableEngine) startCommit(tx *Tx) {
	tx.state = txCommitWait
	tx.commitAt = e.rt.Now()
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
	e.pump(tx)
}

// abortLocal aborts a home transaction: if any write was broadcast the
// abort decision is broadcast so every site releases the staged state.
func (e *ReliableEngine) abortLocal(tx *Tx, reason AbortReason) {
	if tx.state == txDone {
		return
	}
	if n := opsSent(tx, !e.cfg.PerOpWrites); n > 0 {
		// The self-delivery cleans up this site's replica state.
		e.stack.Broadcast(message.ClassReliable, &message.Decision{Txn: tx.ID, Commit: false, NOps: n})
	} else {
		e.locks.ReleaseAll(tx.ID)
	}
	e.finish(tx, Aborted, reason)
}

// onWriteAck processes one site's explicit acknowledgement.
func (e *ReliableEngine) onWriteAck(a message.WriteAck) {
	if tx := e.acked(a, !e.cfg.PerOpWrites); tx != nil {
		e.pump(tx)
	}
}

// deliver handles reliable-broadcast deliveries at every site.
func (e *ReliableEngine) deliver(d broadcast.Delivery) {
	switch p := d.Payload.(type) {
	case *message.WriteReq:
		e.onWrites(p.Txn, p.OpSeq, []message.KV{{Key: p.Key, Value: p.Value}})
	case *message.WriteBatch:
		e.onWrites(p.Txn, 0, p.Writes)
	case *message.VoteReq:
		e.onVoteReq(p)
	case *message.Vote:
		e.onVote(p)
	case *message.Decision:
		e.onDecision(p)
	default:
		e.rt.Logf("reliable: unexpected payload %v", d.Payload.Kind())
	}
}

// ack sends an acknowledgement to the home site, short-circuiting when this
// site is the home. Only the message that leaves the site is boxed.
func (e *ReliableEngine) ack(a message.WriteAck) {
	if a.Txn.Site == e.rt.ID() {
		e.onWriteAck(a)
		return
	}
	out := a // boxing &a instead would move a to the heap on the self path too
	e.rt.Send(a.Txn.Site, &out)
}

// onWrites stages one replicated write operation (seq; 0 for a write
// batch) under the never-wait rule and acknowledges it: granted → staged,
// positive acknowledgement; conflict → negative acknowledgement, releasing
// any locks already held (the home site will broadcast the abort).
func (e *ReliableEngine) onWrites(txn message.TxnID, seq int, writes []message.KV) {
	r := e.rtxn(txn)
	r.seenOps++
	if r.doomed || r.decided {
		e.cleanupIfDrained(r)
		return
	}
	_, ok := e.stage(r, writes)
	e.ack(message.WriteAck{Txn: txn, OpSeq: seq, By: e.rt.ID(), OK: ok})
}

// onVoteReq casts this site's vote to every site (decentralized 2PC).
func (e *ReliableEngine) onVoteReq(v *message.VoteReq) {
	r := e.rtxn(v.Txn)
	yes := !r.doomed && !r.decided
	e.stack.Broadcast(message.ClassReliable, &message.Vote{Txn: v.Txn, By: e.rt.ID(), Yes: yes})
}

// onVote tallies; every site reaches the decision independently.
func (e *ReliableEngine) onVote(v *message.Vote) {
	yes := int64(0)
	if v.Yes {
		yes = 1
	}
	e.tr.Point(v.Txn, trace.KindVote, 0, v.By, yes)
	r := e.rtxn(v.Txn)
	if r.decided {
		return
	}
	if _, dup := r.vote(v.By); !dup {
		if r.votes == nil {
			r.votes = make([]siteVote, 0, len(e.members()))
		}
		r.votes = append(r.votes, siteVote{site: v.By, yes: v.Yes})
	}
	e.tally(r)
}

func (e *ReliableEngine) tally(r *rtxn) {
	if r.decided {
		return
	}
	for _, s := range e.members() {
		yes, ok := r.vote(s)
		if !ok {
			return // still waiting
		}
		if !yes {
			e.decideAbort(r, ReasonViewChange)
			return
		}
	}
	r.decided = true
	e.commitReplica(r)
}

func (e *ReliableEngine) decideAbort(r *rtxn, reason AbortReason) {
	r.decided = true
	e.discard(r)
	e.cleanupIfDrained(r)
	if tx := e.local[r.id]; tx != nil {
		e.finish(tx, Aborted, reason)
	}
}

// onDecision handles the home site's broadcast abort (commits are decided
// by vote tallies, never announced).
func (e *ReliableEngine) onDecision(d *message.Decision) {
	if d.Commit {
		e.rt.Logf("reliable: unexpected commit decision for %v", d.Txn)
		return
	}
	r := e.rtxn(d.Txn)
	r.nOps = d.NOps
	e.decideAbort(r, ReasonWriteConflict)
}

// cleanupIfDrained deletes an aborted transaction's tombstone once every
// broadcast write operation has arrived, so straggling (reliable broadcast
// is unordered) writes cannot resurrect state.
func (e *ReliableEngine) cleanupIfDrained(r *rtxn) {
	if r.doomed && r.nOps >= 0 && r.seenOps >= r.nOps {
		delete(e.remote, r.id)
	}
}

// onViewChange re-drives pending work against the new membership: pending
// acknowledgement waits and vote tallies drop departed sites; transactions
// homed at departed sites are aborted locally; and if this site fell out of
// the primary partition every local transaction aborts.
func (e *ReliableEngine) onViewChange(_, _ message.View) {
	e.stack.OnViewChange()
	if !e.inPrimary() {
		e.abortAllLocal()
		return
	}
	members := e.memberSet()
	for _, tx := range sortedTxns(e.local) {
		if tx.opInFlight {
			tx.ackWait = slices.DeleteFunc(tx.ackWait, func(s message.SiteID) bool { return !members[s] })
			if len(tx.ackWait) == 0 {
				tx.opInFlight = false
				tx.nextOp++
				e.pump(tx)
			}
		}
	}
	for _, r := range e.remoteSnapshot() {
		if !members[r.id.Site] {
			// Home site left the view: abort the orphan.
			e.decideAbort(r, ReasonViewChange)
			delete(e.remote, r.id)
			continue
		}
		e.tally(r)
	}
}
