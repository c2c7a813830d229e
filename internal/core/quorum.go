package core

import (
	"slices"

	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/sgraph"
	"repro/internal/trace"
)

// QuorumEngine implements Gifford's weighted-voting (majority-quorum)
// replica control [Gif79] — the other classical point-to-point family the
// paper positions the broadcast protocols against. Every object carries a
// version number; reads consult a majority of sites under shared locks and
// take the highest version; writes lock their write set at a majority,
// derive each key's next version from the quorum's maximum, and install
// the new versions. Majority read and write quorums pairwise intersect
// (R+W>N, W+W>N), which — with strict two-phase locking at the
// intersection sites and wound-wait deadlock avoidance — yields one-copy
// serializability.
//
// The contrast the experiments draw: quorum reads cost two network rounds
// per key where the broadcast protocols read locally for free, but quorum
// writes survive a minority of crashed sites with *no failure detector or
// view machinery at all* — the home site simply stops waiting after a
// majority answers.
type QuorumEngine struct {
	*base
	reads      map[qopKey]*qRead
	lockRounds map[message.TxnID]*qLockRound
	remote     map[message.TxnID]*qRemote
	byTxn      map[message.TxnID][]qopKey // read ops to clean at txn end
}

type qopKey struct {
	txn message.TxnID
	seq int
}

// qRead is the home-side state of one quorum read.
type qRead struct {
	key     message.Key
	cb      func(message.Value, error)
	replies map[message.SiteID]*message.QReadReply
	done    bool
}

// qLockRound is the home-side state of the write-set lock round.
type qLockRound struct {
	replies map[message.SiteID][]message.KeyVer
	done    bool
}

// qRemote is the replica-side state: which lock acquisition is still in
// progress for a remote transaction.
type qRemote struct {
	id       message.TxnID
	lockKeys []message.Key // remaining keys of a QLockReq being acquired
	released bool
}

var _ Engine = (*QuorumEngine)(nil)

// NewQuorum creates a majority-quorum engine on rt.
func NewQuorum(rt env.Runtime, cfg Config) *QuorumEngine {
	e := &QuorumEngine{
		base:       newBase(rt, cfg, "quorum"),
		reads:      make(map[qopKey]*qRead),
		lockRounds: make(map[message.TxnID]*qLockRound),
		remote:     make(map[message.TxnID]*qRemote),
		byTxn:      make(map[message.TxnID][]qopKey),
	}
	// No failure handling, whatever Config.FailureInterval says: quorum
	// protocols tolerate minority failures structurally.
	e.initCheckpoint(nil)
	return e
}

// majority returns the quorum size: ⌊n/2⌋+1 of the full cluster.
func (e *QuorumEngine) majority() int { return len(e.rt.Peers())/2 + 1 }

// Start implements env.Node.
func (e *QuorumEngine) Start() { e.start() }

// Receive implements env.Node.
func (e *QuorumEngine) Receive(from message.SiteID, m message.Message) {
	switch t := m.(type) {
	case *message.QReadReq:
		e.onReadReq(from, t)
	case *message.QReadReply:
		e.onReadReply(t)
	case *message.QLockReq:
		e.onLockReq(from, t)
	case *message.QLockReply:
		e.onLockReply(t)
	case *message.QCommit:
		e.onQCommit(t)
	case *message.QRelease:
		e.onQRelease(t)
	case *message.Wound:
		e.onWound(t)
	case *message.Heartbeat:
		// Liveness only.
	default:
		e.rt.Logf("quorum: unexpected %v from %v", m.Kind(), from)
	}
}

// sendOrLocal unicasts, short-circuiting self-sends to the local handler.
func (e *QuorumEngine) sendOrLocal(to message.SiteID, m message.Message, local func()) {
	if to == e.rt.ID() {
		local()
		return
	}
	e.rt.Send(to, m)
}

// Begin implements Engine.
func (e *QuorumEngine) Begin(readOnly bool) *Tx { return e.begin(readOnly) }

// Read implements Engine: a quorum read — shared locks at every answering
// site, value taken from the highest version among the first majority.
func (e *QuorumEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if err := e.readPrecheck(tx); err != nil {
		cb(nil, err)
		return
	}
	seq := len(e.byTxn[tx.ID])
	op := qopKey{tx.ID, seq}
	qr := &qRead{key: key, cb: cb, replies: make(map[message.SiteID]*message.QReadReply)}
	e.reads[op] = qr
	e.byTxn[tx.ID] = append(e.byTxn[tx.ID], op)
	// If the transaction dies (wound, abort) before the quorum answers, the
	// client's continuation must still run.
	tx.readWaits = append(tx.readWaits, func() {
		if !qr.done {
			qr.done = true
			qr.cb(nil, ErrTxnDone)
		}
	})
	req := &message.QReadReq{Txn: tx.ID, Seq: seq, Key: key}
	for _, p := range e.rt.Peers() {
		p := p
		e.sendOrLocal(p, req, func() { e.onReadReq(p, req) })
	}
}

// onReadReq is the replica side of a quorum read: grant the shared lock
// (wound-wait), then reply with the local version.
func (e *QuorumEngine) onReadReq(_ message.SiteID, req *message.QReadReq) {
	r := e.rtxn(req.Txn)
	if r.released {
		return // transaction already ended here
	}
	e.woundYounger(req.Txn, req.Key, lockShared, e.wound)
	reply := func() {
		rr := e.remote[req.Txn]
		if rr == nil || rr.released {
			return
		}
		out := &message.QReadReply{Txn: req.Txn, Seq: req.Seq, Key: req.Key, From: e.rt.ID()}
		if rec, ok := e.store.Get(req.Key); ok {
			out.Found = true
			out.Ver = rec.Index
			out.Writer = rec.Writer
			out.Value = rec.Value
		}
		e.sendOrLocal(req.Txn.Site, out, func() { e.onReadReply(out) })
	}
	if e.locks.Acquire(req.Txn, req.Key, lockShared, true, reply) == lockGranted {
		reply()
	}
}

// onReadReply gathers replies at the home site; the majority-th completes
// the read with the freshest version.
func (e *QuorumEngine) onReadReply(rep *message.QReadReply) {
	qr := e.reads[qopKey{rep.Txn, rep.Seq}]
	if qr == nil || qr.done {
		return
	}
	found := int64(0)
	if rep.Found {
		found = 1
	}
	e.tr.Point(rep.Txn, trace.KindReadReply, uint64(rep.Seq), rep.From, found)
	qr.replies[rep.From] = rep
	if len(qr.replies) < e.majority() {
		return
	}
	qr.done = true
	tx := e.local[rep.Txn]
	if tx == nil || tx.state == txDone {
		return
	}
	var best *message.QReadReply
	for _, r := range qr.replies {
		if r.Found && (best == nil || r.Ver > best.Ver) {
			best = r
		}
	}
	var val message.Value
	var from message.TxnID
	if best != nil {
		val, from = best.Value, best.Writer
	}
	tx.reads = append(tx.reads, sgraph.ReadObs{Key: qr.key, From: from})
	// Remember the observed version for the write round's version
	// derivation (reads-before-writes means these are available by then).
	if best != nil {
		tx.readVers = append(tx.readVers, message.KeyVer{Key: qr.key, Ver: best.Ver})
	}
	qr.cb(val, nil)
}

// Write implements Engine: buffered until commit (quorum writes are
// naturally deferred — the lock round carries the whole write set).
func (e *QuorumEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	return e.bufferWrite(tx, key, val)
}

// Commit implements Engine.
func (e *QuorumEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		// Read-only: release the shared locks scattered across the read
		// quorums and finish locally.
		e.releaseEverywhere(tx.ID)
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	keys := writeKeys(message.DedupWrites(tx.writes))
	slices.Sort(keys)
	e.lockRounds[tx.ID] = &qLockRound{replies: make(map[message.SiteID][]message.KeyVer)}
	tx.commitAt = e.rt.Now()
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), int64(len(keys)))
	req := &message.QLockReq{Txn: tx.ID, Keys: keys}
	for _, p := range e.rt.Peers() {
		p := p
		e.sendOrLocal(p, req, func() { e.onLockReq(p, req) })
	}
}

// Abort implements Engine.
func (e *QuorumEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	e.releaseEverywhere(tx.ID)
	e.finish(tx, Aborted, ReasonClient)
}

// releaseEverywhere tells every site (including this one) to drop the
// transaction's locks and pending operations.
func (e *QuorumEngine) releaseEverywhere(id message.TxnID) {
	rel := &message.QRelease{Txn: id}
	for _, p := range e.rt.Peers() {
		p := p
		e.sendOrLocal(p, rel, func() { e.onQRelease(rel) })
	}
}

func (e *QuorumEngine) rtxn(id message.TxnID) *qRemote {
	r := e.remote[id]
	if r == nil {
		r = &qRemote{id: id}
		e.remote[id] = r
	}
	return r
}

// wound notifies a younger transaction's home site to abort it.
func (e *QuorumEngine) wound(victim message.TxnID) {
	w := &message.Wound{Txn: victim, By: e.rt.ID()}
	e.sendOrLocal(victim.Site, w, func() { e.onWound(w) })
}

// onLockReq acquires the write set one key at a time (sorted order) with
// wound-wait; when the last key is granted it replies with the replica's
// current version numbers — the reply doubles as the prepared vote.
func (e *QuorumEngine) onLockReq(_ message.SiteID, req *message.QLockReq) {
	r := e.rtxn(req.Txn)
	if r.released {
		return
	}
	r.lockKeys = append([]message.Key(nil), req.Keys...)
	e.acquireNext(r)
}

func (e *QuorumEngine) acquireNext(r *qRemote) {
	for len(r.lockKeys) > 0 {
		key := r.lockKeys[0]
		e.woundYounger(r.id, key, lockExclusive, e.wound)
		granted := false
		res := e.locks.Acquire(r.id, key, lockExclusive, true, func() {
			rr := e.remote[r.id]
			if rr == nil || rr.released {
				return
			}
			if len(rr.lockKeys) > 0 && rr.lockKeys[0] == key {
				rr.lockKeys = rr.lockKeys[1:]
			}
			e.acquireNext(rr)
		})
		if res == lockGranted {
			granted = true
		}
		if !granted {
			return // continue from the grant callback
		}
		r.lockKeys = r.lockKeys[1:]
	}
	// Whole write set locked: report versions.
	vers := make([]message.KeyVer, 0, 4)
	for _, key := range e.locks.HeldKeys(r.id) {
		if e.locks.HolderMode(r.id, key) != lockExclusive {
			continue
		}
		ver := uint64(0)
		if rec, ok := e.store.Get(key); ok {
			ver = rec.Index
		}
		vers = append(vers, message.KeyVer{Key: key, Ver: ver})
	}
	out := &message.QLockReply{Txn: r.id, From: e.rt.ID(), Vers: vers}
	e.sendOrLocal(r.id.Site, out, func() { e.onLockReply(out) })
}

// onLockReply gathers lock grants at the home site; at a majority it
// derives the new version numbers and broadcasts the commit.
func (e *QuorumEngine) onLockReply(rep *message.QLockReply) {
	round := e.lockRounds[rep.Txn]
	tx := e.local[rep.Txn]
	if round == nil || round.done || tx == nil || tx.state != txCommitWait {
		return
	}
	e.tr.Point(rep.Txn, trace.KindLockGrant, uint64(len(rep.Vers)), rep.From, 0)
	round.replies[rep.From] = rep.Vers
	if len(round.replies) < e.majority() {
		return
	}
	round.done = true
	e.tr.Interval(rep.Txn, trace.KindAckWait, tx.commitAt, 0, e.rt.ID(), 0)
	delete(e.lockRounds, rep.Txn)
	// New version per key: the quorum's maximum plus one. Quorum
	// intersection guarantees the maximum covers every committed write.
	writes := message.DedupWrites(tx.writes)
	maxVer := make(map[message.Key]uint64, len(writes))
	for _, vers := range round.replies {
		for _, kv := range vers {
			if kv.Ver > maxVer[kv.Key] {
				maxVer[kv.Key] = kv.Ver
			}
		}
	}
	commit := &message.QCommit{Txn: tx.ID, Writes: writes}
	for _, w := range writes {
		commit.Vers = append(commit.Vers, message.KeyVer{Key: w.Key, Ver: maxVer[w.Key] + 1})
	}
	for _, p := range e.rt.Peers() {
		p := p
		e.sendOrLocal(p, commit, func() { e.onQCommit(commit) })
	}
	e.finish(tx, Committed, ReasonNone)
}

// onQCommit installs the committed versions (skipping any this replica
// already has newer) and releases the transaction here. Each surviving
// write keeps its own quorum-assigned version, so it rides the pipeline as
// a separate versioned entry; the home site's client was answered at the
// decision point, so no durability ack is registered.
func (e *QuorumEngine) onQCommit(c *message.QCommit) {
	vers := make(map[message.Key]uint64, len(c.Vers))
	for _, kv := range c.Vers {
		vers[kv.Key] = kv.Ver
	}
	var entries []commitpipe.Entry
	for _, w := range c.Writes {
		ver := vers[w.Key]
		if rec, ok := e.store.Get(w.Key); ok && rec.Index >= ver {
			continue // a newer quorum write already landed here
		}
		entries = append(entries, commitpipe.Entry{Writes: []message.KV{w}, Index: ver, Versioned: true})
	}
	e.pipe.Submit(commitpipe.Txn{
		ID:          c.Txn,
		Entries:     entries,
		TraceWrites: len(c.Writes),
		Applied:     func() { e.cleanup(c.Txn) },
	})
}

// onQRelease drops the transaction's footprint at this replica.
func (e *QuorumEngine) onQRelease(rel *message.QRelease) {
	e.cleanup(rel.Txn)
}

func (e *QuorumEngine) cleanup(id message.TxnID) {
	if r := e.remote[id]; r != nil {
		r.released = true
	}
	delete(e.remote, id)
	e.locks.ReleaseAll(id)
	for _, op := range e.byTxn[id] {
		delete(e.reads, op)
	}
	delete(e.byTxn, id)
	delete(e.lockRounds, id)
}

// onWound aborts a local transaction unless its commit already reached the
// decision point.
func (e *QuorumEngine) onWound(w *message.Wound) {
	tx := e.local[w.Txn]
	if tx == nil || tx.state == txDone {
		return
	}
	if tx.state == txCommitWait {
		if round := e.lockRounds[w.Txn]; round == nil || round.done {
			return // decision already made
		}
	}
	e.releaseEverywhere(tx.ID)
	e.finish(tx, Aborted, ReasonWounded)
}

// PendingRemote returns replica-side records still held (leak oracle).
func (e *QuorumEngine) PendingRemote() int { return len(e.remote) + len(e.reads) + len(e.lockRounds) }
