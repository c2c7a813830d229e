package core

import (
	"slices"
	"sort"

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
	*base
	stack  *broadcast.Stack
	remote map[message.TxnID]*rtxnR
}

// rtxnR is a site's replica-side state for one update transaction.
type rtxnR struct {
	replica
	seenOps int
	nOps    int // write count announced by an abort decision; -1 = unknown
	decided bool
	votes   []siteVote // first vote of each site, in arrival order
}

// siteVote is one site's vote in protocol R's decentralized commit.
type siteVote struct {
	site message.SiteID
	yes  bool
}

// vote returns site's vote on r, if it has arrived.
func (r *rtxnR) vote(site message.SiteID) (yes, ok bool) {
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
	e := &ReliableEngine{
		base:   newBase(rt, cfg, "reliable"),
		remote: make(map[message.TxnID]*rtxnR),
	}
	e.initViews(func(_, _ message.View) { e.onViewChange() })
	e.stack = broadcast.New(rt, broadcast.Config{
		Deliver:          e.deliver,
		Relay:            cfg.Relay,
		Members:          e.members,
		Tracer:           cfg.Tracer,
		HistoryRetention: cfg.HistoryRetention,
	})
	if cfg.InitialStack != nil {
		e.stack.ImportSync(cfg.InitialStack)
	}
	e.initCheckpoint(e.stack.ExportSync)
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

// Begin implements Engine.
func (e *ReliableEngine) Begin(readOnly bool) *Tx { return e.begin(readOnly) }

// Read implements Engine.
func (e *ReliableEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	e.lockingRead(tx, key, cb)
}

// Write implements Engine. The paper's protocol broadcasts each write
// operation and blocks the transaction until every site has acknowledged
// it; the engine realizes that as a one-op-in-flight pipeline. With
// Config.BatchWrites the dissemination is deferred to commit time instead.
func (e *ReliableEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	if err := e.bufferWrite(tx, key, val); err != nil {
		return err
	}
	if !e.cfg.BatchWrites {
		e.pump(tx)
	}
	return nil
}

// pump advances the transaction's write pipeline: broadcast the next write
// when none is in flight, or start the vote phase when all writes are
// acknowledged and commit was requested.
func (e *ReliableEngine) pump(tx *Tx) {
	if tx.state == txDone || tx.opInFlight {
		return
	}
	if e.cfg.BatchWrites {
		if tx.nextOp < len(tx.writes) {
			// One batch broadcast covers the whole write set; a single
			// all-sites acknowledgement round follows.
			tx.opInFlight = true
			tx.ackWait = append(tx.ackWait[:0], e.members()...)
			batch := &message.WriteBatch{Txn: tx.ID, Writes: message.DedupWrites(tx.writes)}
			tx.nextOp = len(tx.writes)
			tx.opSentAt = e.rt.Now()
			e.tr.Point(tx.ID, trace.KindWriteSend, 0, e.rt.ID(), int64(len(batch.Writes)))
			e.stack.Broadcast(message.ClassReliable, batch)
			return
		}
		if tx.state == txCommitWait {
			e.stack.Broadcast(message.ClassReliable, &message.VoteReq{Txn: tx.ID})
		}
		return
	}
	if tx.nextOp < len(tx.writes) {
		op := tx.writes[tx.nextOp]
		tx.opInFlight = true
		tx.ackWait = append(tx.ackWait[:0], e.members()...)
		// The local delivery inside Broadcast acknowledges (or refuses)
		// synchronously through onWriteAck, so ackWait is set up first.
		tx.opSentAt = e.rt.Now()
		e.tr.Point(tx.ID, trace.KindWriteSend, uint64(tx.nextOp+1), e.rt.ID(), 1)
		e.stack.Broadcast(message.ClassReliable, &message.WriteReq{
			Txn: tx.ID, OpSeq: tx.nextOp + 1, Key: op.Key, Value: op.Value,
		})
		return
	}
	if tx.state == txCommitWait {
		e.stack.Broadcast(message.ClassReliable, &message.VoteReq{Txn: tx.ID})
	}
}

// Commit implements Engine.
func (e *ReliableEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		// Read-only (or writeless) transactions commit locally: no
		// broadcast, no votes, never aborted.
		e.locks.ReleaseAll(tx.ID)
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	tx.commitAt = e.rt.Now()
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), 0)
	e.pump(tx)
}

// onWriteBatch is the batched counterpart of onWriteReq: all locks or none.
func (e *ReliableEngine) onWriteBatch(wb *message.WriteBatch) {
	r := e.rtxn(wb.Txn)
	r.seenOps++
	if r.doomed || r.decided {
		e.cleanupIfDrained(r)
		return
	}
	for _, w := range wb.Writes {
		if e.locks.Acquire(wb.Txn, w.Key, lockExclusive, false, nil) != lockGranted {
			r.doomed = true
			r.staged = nil
			e.locks.ReleaseAll(wb.Txn)
			e.ack(message.WriteAck{Txn: wb.Txn, OpSeq: 0, By: e.rt.ID(), OK: false})
			return
		}
	}
	r.staged = append(r.staged, wb.Writes...)
	e.ack(message.WriteAck{Txn: wb.Txn, OpSeq: 0, By: e.rt.ID(), OK: true})
}

// Abort implements Engine. Once Commit has been requested the outcome is
// in the hands of the vote round and the call is ignored.
func (e *ReliableEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	e.abortLocal(tx, ReasonClient)
}

// abortLocal aborts a home transaction: if any write was broadcast the
// abort decision is broadcast so every site releases the staged state.
func (e *ReliableEngine) abortLocal(tx *Tx, reason AbortReason) {
	if tx.state == txDone {
		return
	}
	opsSent := tx.nextOp
	if tx.opInFlight {
		opsSent++
	}
	if e.cfg.BatchWrites {
		opsSent = 0
		if tx.opInFlight || tx.nextOp == len(tx.writes) && tx.wrote {
			opsSent = 1 // the single batch broadcast
		}
	}
	if opsSent > 0 {
		// The self-delivery cleans up this site's replica state.
		e.stack.Broadcast(message.ClassReliable, &message.Decision{Txn: tx.ID, Commit: false, NOps: opsSent})
	} else {
		e.locks.ReleaseAll(tx.ID)
	}
	e.finish(tx, Aborted, reason)
}

// onWriteAck processes one site's explicit acknowledgement.
func (e *ReliableEngine) onWriteAck(a message.WriteAck) {
	tx := e.local[a.Txn]
	if tx == nil || tx.state == txDone || !tx.opInFlight {
		return
	}
	if e.cfg.BatchWrites {
		if a.OpSeq != 0 {
			return
		}
	} else if a.OpSeq != tx.nextOp+1 {
		return
	}
	ok := int64(0)
	if a.OK {
		ok = 1
	}
	e.tr.Point(a.Txn, trace.KindAck, uint64(a.OpSeq), a.By, ok)
	if !a.OK {
		e.abortLocal(tx, ReasonWriteConflict)
		return
	}
	tx.ackWait = dropSite(tx.ackWait, a.By)
	if len(tx.ackWait) == 0 {
		// The acknowledgement round for this operation is complete.
		e.tr.Interval(tx.ID, trace.KindAckWait, tx.opSentAt, uint64(a.OpSeq), e.rt.ID(), 0)
		tx.opInFlight = false
		tx.nextOp++
		e.pump(tx)
	}
}

// deliver handles reliable-broadcast deliveries at every site.
func (e *ReliableEngine) deliver(d broadcast.Delivery) {
	switch p := d.Payload.(type) {
	case *message.WriteReq:
		e.onWriteReq(p)
	case *message.WriteBatch:
		e.onWriteBatch(p)
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

func (e *ReliableEngine) rtxn(id message.TxnID) *rtxnR {
	r := e.remote[id]
	if r == nil {
		r = &rtxnR{replica: replica{id: id}, nOps: -1}
		e.remote[id] = r
	}
	return r
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

// onWriteReq attempts the exclusive lock for a replicated write: granted →
// stage and acknowledge; conflict → negative acknowledgement, releasing any
// locks already held (the home site will broadcast the abort).
func (e *ReliableEngine) onWriteReq(w *message.WriteReq) {
	r := e.rtxn(w.Txn)
	r.seenOps++
	if r.doomed || r.decided {
		e.cleanupIfDrained(r)
		return
	}
	switch e.locks.Acquire(w.Txn, w.Key, lockExclusive, false, nil) {
	case lockGranted:
		r.staged = append(r.staged, message.KV{Key: w.Key, Value: w.Value})
		e.ack(message.WriteAck{Txn: w.Txn, OpSeq: w.OpSeq, By: e.rt.ID(), OK: true})
	default:
		r.doomed = true
		r.staged = nil
		e.locks.ReleaseAll(w.Txn)
		e.ack(message.WriteAck{Txn: w.Txn, OpSeq: w.OpSeq, By: e.rt.ID(), OK: false})
	}
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

func (e *ReliableEngine) tally(r *rtxnR) {
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
	e.decideCommit(r)
}

func (e *ReliableEngine) decideCommit(r *rtxnR) {
	r.decided = true
	e.commitPipelined(&r.replica, func() {
		e.locks.ReleaseAll(r.id)
		delete(e.remote, r.id)
	})
}

func (e *ReliableEngine) decideAbort(r *rtxnR, reason AbortReason) {
	r.decided = true
	r.doomed = true
	r.staged = nil
	e.locks.ReleaseAll(r.id)
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
	r.decided = true
	r.doomed = true
	r.staged = nil
	e.locks.ReleaseAll(d.Txn)
	e.cleanupIfDrained(r)
	if tx := e.local[d.Txn]; tx != nil {
		e.finish(tx, Aborted, ReasonWriteConflict)
	}
}

// cleanupIfDrained deletes an aborted transaction's tombstone once every
// broadcast write operation has arrived, so straggling (reliable broadcast
// is unordered) writes cannot resurrect state.
func (e *ReliableEngine) cleanupIfDrained(r *rtxnR) {
	if r.doomed && r.nOps >= 0 && r.seenOps >= r.nOps {
		delete(e.remote, r.id)
	}
}

// onViewChange re-drives pending work against the new membership: pending
// acknowledgement waits and vote tallies drop departed sites; transactions
// homed at departed sites are aborted locally; and if this site fell out of
// the primary partition every local transaction aborts.
func (e *ReliableEngine) onViewChange() {
	e.stack.OnViewChange()
	members := make(map[message.SiteID]bool)
	for _, s := range e.members() {
		members[s] = true
	}
	if !e.inPrimary() {
		for _, tx := range sortedTxns(e.local) {
			e.abortLocal(tx, ReasonNotPrimary)
		}
		return
	}
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

func (e *ReliableEngine) remoteSnapshot() []*rtxnR {
	out := make([]*rtxnR, 0, len(e.remote))
	for _, r := range e.remote {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id.Less(out[j].id) })
	return out
}

// Broadcasts exposes the stack's per-class delivery counters (tests).
func (e *ReliableEngine) Broadcasts() map[message.Class]int64 { return e.stack.Deliveries }

// PendingRemote returns the number of replica-side transaction records
// still held (leak oracle for tests).
func (e *ReliableEngine) PendingRemote() int { return len(e.remote) }
