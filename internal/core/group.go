package core

import (
	"time"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/storage"
)

// replicaGroup is protocol A's core, once: every member of a replication
// group applies one deterministic certification rule to one totally ordered
// stream. It owns the group's ordering stack, store, commit pipeline and
// checkpointer, the certification state, and everything that keeps a
// lagging or restarted member on the stream: the two-probe gap detector,
// retransmission, and chunked state transfer.
//
// The fully replicated AtomicEngine is one group on the site runtime whose
// membership is the installed view; the ShardedEngine runs one group per
// locally replicated shard on a broadcast.GroupRuntime (GroupMsg-wrapped
// sends, ring membership). What an engine adds is what is genuinely
// protocol-specific: causal write dissemination and view-driven staleness
// for A, routing and the cross-shard round for the sharded engine. The
// engine's in-flight state rides state transfers as a carriage, through the
// export and installed callbacks — the only seam between the two layers.
type replicaGroup struct {
	*base
	rt    env.Runtime             // the runtime this group's traffic runs on
	view  func() []message.SiteID // current members: installed view or ring replica set
	stack *broadcast.Stack
	store *storage.Store
	pipe  *commitpipe.Pipeline
	ckpt  *checkpoint.Checkpointer

	certIndex  uint64 // order index of the last processed request
	lastCommit map[message.Key]uint64
	spare      orderedGroup // pipeline-group scratch, see takeGroup
	// blocked holds the footprints of certified-but-undecided cross-shard
	// prepares: a concurrent write touching a blocked key — or a read of a
	// key a blocking prepare writes — fails certification
	// (abort-if-any-conflict; the prepare ordered first wins). Several
	// prepares may hold the same key at once (read-read overlaps certify
	// independently), so each key tracks the full holder set and the key
	// stays blocked until the last holder's decision. Always empty under
	// full replication.
	blocked map[message.Key]*blockSet

	// stale gates serving and accepting: a member that fell out of the
	// primary partition neither donates state nor answers retransmission,
	// and accepts any transfer — even one at or below its own index.
	stale   bool
	lastGap uint64

	// Chunked state-transfer reassembly: chunks of one transfer share
	// (From, Applied, Since); a newer generation discards a stale partial
	// one. chunkLast is -1 until the Last chunk names the set's extent.
	chunkFrom    message.SiteID
	chunkApplied uint64
	chunkSince   uint64
	chunkBuf     map[int]*message.SnapshotChunk
	chunkLast    int

	// export captures the engine's carriage for an outgoing transfer,
	// SyncState or checkpoint.
	export func() carriage
	// installed hands the engine a donor's carriage: of a completed
	// transfer (transfer true: it replaces the engine's in-flight state) or
	// of a SyncState on the repair path (it merges). It runs before the
	// stack frontiers are imported, because the import re-delivers held
	// broadcasts into the engine; a non-nil return runs after the import.
	installed func(c carriage, transfer bool) (resumed func())
}

// carriage is the engine-specific state a transfer carries beside the store
// and the stack frontiers: protocol A's in-flight write dissemination, or
// the sharded engine's cross-shard certification state. Each engine fills
// one field; the other stays nil on the wire.
type carriage struct {
	Pending map[message.TxnID][]message.KV
	Shard   *message.ShardRecovery
}

// open builds the group's ordering stack on g.rt and resumes from recovered
// state: certification continues at the store's applied index, the ordered
// stream skips what the store already covers (gap repair fetches anything
// missed while down), and initial — a recovered checkpoint's frontiers —
// makes new broadcasts number above the pre-crash sequences. The caller has
// set every other field, and has made g reachable from deliver's receiver:
// importing initial may deliver.
func (g *replicaGroup) open(deliver func(broadcast.Delivery), pol checkpoint.Policy, initial *message.StackSync) {
	g.lastCommit = make(map[message.Key]uint64)
	g.blocked = make(map[message.Key]*blockSet)
	g.chunkLast = -1
	g.stack = broadcast.New(g.rt, broadcast.Config{
		Deliver:          deliver,
		Relay:            g.cfg.Relay,
		Atomic:           g.cfg.AtomicMode,
		Members:          g.view,
		Tracer:           g.cfg.Tracer,
		BatchWindow:      g.cfg.AtomicBatchWindow,
		BatchMaxMsgs:     g.cfg.AtomicBatchMsgs,
		HistoryRetention: g.cfg.HistoryRetention,
	})
	if g.certIndex = g.store.Applied(); g.certIndex > 0 {
		g.noteCommitted(g.store.Snapshot())
		g.stack.SkipTo(g.certIndex + 1)
	}
	g.stack.ImportSync(initial)
	g.ckpt = g.newCheckpointer(pol, g.store, g.pipe, func(ck *checkpoint.Checkpoint) {
		ck.Stack = g.stack.ExportSync()
		ck.Shard = g.export().Shard
	})
}

// noteCommitted records each entry's newest version as its key's latest
// committed version.
func (g *replicaGroup) noteCommitted(entries []message.SnapshotEntry) {
	for _, entry := range entries {
		if n := len(entry.Versions); n > 0 {
			g.lastCommit[entry.Key] = entry.Versions[n-1].Index
		}
	}
}

// certify is the deterministic decision rule, applied identically by every
// member at the request's order index. Every read base version must still
// be the key's latest committed version, and no read may touch a key an
// undecided cross-shard prepare writes (the value is about to change at the
// prepare's decision). Write base versions, when the request carries them
// (full replication), are checked the same way; sharded writes are blind
// and serialize by install index. No write may touch a key any undecided
// prepare holds. It runs once per ordered request at every member and
// allocates nothing; TestOrderedCommitAllocs pins the path around it.
//
// reprolint:noalloc
func (g *replicaGroup) certify(reads, writeVers []message.KeyVer, writes []message.KV) bool {
	for _, kv := range reads {
		if g.lastCommit[kv.Key] > kv.Ver {
			return false
		}
		if bs := g.blocked[kv.Key]; bs != nil && bs.wrote > 0 {
			return false
		}
	}
	for _, kv := range writeVers {
		if g.lastCommit[kv.Key] > kv.Ver {
			return false
		}
	}
	for _, w := range writes {
		if g.blocked[w.Key] != nil {
			return false
		}
	}
	return true
}

// orderedGroup is a pipeline group of ordered requests being built in the
// replication group's scratch (see takeGroup).
type orderedGroup struct {
	txns    []commitpipe.Txn
	entries []commitpipe.Entry
}

// takeGroup borrows the group scratch, leaving none behind until submit
// returns it: a group built while this one is in the pipeline — a drain
// re-entered from the ack loop — allocates slices of its own instead of
// overwriting transactions the pipeline has yet to acknowledge.
func (g *replicaGroup) takeGroup() orderedGroup {
	o := g.spare
	g.spare = orderedGroup{}
	return o
}

// order appends one decided request at order index idx to o. A commit
// (ok) makes idx the latest committed version of every written key, so the
// requests ordered after it certify against it; an abort installs nothing.
// ack, if not nil, hears the durable outcome.
func (g *replicaGroup) order(o *orderedGroup, id message.TxnID, idx uint64, writes []message.KV, ok bool, ack func(committed bool)) {
	if ok {
		for _, w := range writes {
			g.lastCommit[w.Key] = idx
		}
	}
	o.entries = append(o.entries, commitpipe.Entry{Writes: writes, Index: idx})
	o.txns = append(o.txns, commitpipe.Txn{ID: id, Aborted: !ok, Ack: ack})
}

// submit runs o through the pipeline as one group and returns its slices
// to the scratch.
func (g *replicaGroup) submit(o orderedGroup) {
	if len(o.txns) > 0 {
		for i := range o.txns {
			o.txns[i].Entries = o.entries[i : i+1 : i+1]
		}
		g.pipe.SubmitGroup(o.txns)
		clear(o.txns)
		clear(o.entries)
	}
	g.spare = orderedGroup{o.txns[:0], o.entries[:0]}
}

// submitOne runs a single decided request through the pipeline.
func (g *replicaGroup) submitOne(id message.TxnID, idx uint64, writes []message.KV, ok bool, ack func(committed bool)) {
	o := g.takeGroup()
	g.order(&o, id, idx, writes, ok, ack)
	g.submit(o)
}

// receive routes one message of this group's traffic — the stack's own, or
// the state-transfer and gap-repair side channel — and reports whether it
// was one.
func (g *replicaGroup) receive(from message.SiteID, m message.Message) bool {
	if broadcast.Handles(m) {
		g.stack.Handle(from, m)
		return true
	}
	switch t := m.(type) {
	case *message.StateRequest:
		if !g.stale {
			g.sendSnapshot(t.From, t.HaveIndex)
		}
	case *message.SnapshotChunk:
		g.onSnapshotChunk(t)
	case *message.RetransmitReq:
		g.onRetransmitReq(t)
	case *message.SyncState:
		g.resume(carriage{Pending: t.Pending}, false, t.Stack, 0)
	default:
		return false
	}
	return true
}

// gapProbeInterval paces the ordered-stream gap detector.
const gapProbeInterval = 200 * time.Millisecond

// probeInterval is the gap-detector pace, configurable for experiments.
func (b *base) probeInterval() time.Duration {
	if b.cfg.GapProbeInterval > 0 {
		return b.cfg.GapProbeInterval
	}
	return gapProbeInterval
}

// probe is one tick of the gap detector: it asks the donor to retransmit
// when the same total-order gap persists across two probes (a young gap is
// usually just in-flight traffic). It reports whether the stream has a gap.
func (g *replicaGroup) probe() bool {
	idx, ok := g.stack.Gap()
	if !ok {
		g.lastGap = 0
		return false
	}
	if idx != g.lastGap {
		g.lastGap = idx
		return true
	}
	if donor := g.donor(); donor != g.rt.ID() {
		g.rt.Send(donor, &message.RetransmitReq{From: g.rt.ID(), FromIndex: idx, Applied: g.haveIndex()})
	}
	return true
}

// donor picks the peer to repair or resynchronize from: the lowest other
// current member.
func (g *replicaGroup) donor() message.SiteID {
	for _, m := range g.view() {
		if m != g.rt.ID() {
			return m
		}
	}
	return g.rt.ID()
}

// haveIndex is the applied index advertised to a donor, which ships only
// the delta above it. The FullResync ablation always requests the whole
// state.
func (g *replicaGroup) haveIndex() uint64 {
	if g.cfg.FullResync {
		return 0
	}
	return g.certIndex
}

// onRetransmitReq resends retained ordered broadcasts; a requester below
// the retention window gets a state transfer instead, computed against the
// applied index it advertised.
func (g *replicaGroup) onRetransmitReq(req *message.RetransmitReq) {
	if g.stale {
		return
	}
	if n := g.stack.Retransmit(req.From, req.FromIndex); n == 0 {
		g.sendSnapshot(req.From, req.Applied)
		return
	}
	// Retransmission alone rebuilds the ordered stream but not the causal
	// and send-sequence frontiers a restarted site is missing; piggyback
	// them so it can both deliver peers' ongoing writes and originate new
	// broadcasts peers will accept.
	g.rt.Send(req.From, &message.SyncState{
		From:    g.rt.ID(),
		Stack:   g.stack.ExportSync(),
		Pending: g.export().Pending,
	})
}

// snapshotChunkBytes bounds the estimated payload of one SnapshotChunk.
const snapshotChunkBytes = 64 << 10

// sendSnapshot streams this member's state to a catching-up peer as a
// sequence of bounded-size chunks. since is the requester's applied index:
// when our store still retains versions above it only the delta ships;
// since 0 (or an implausible future index) ships the full state. The final
// chunk carries the broadcast-stack frontiers and the engine's carriage, so
// the receiver installs everything atomically once the set completes.
func (g *replicaGroup) sendSnapshot(to message.SiteID, since uint64) {
	if since > g.certIndex {
		since = 0
	}
	var entries []message.SnapshotEntry
	if since > 0 {
		entries = g.store.Delta(since)
	} else {
		entries = g.store.Snapshot()
	}
	var chunks []*message.SnapshotChunk
	cur := &message.SnapshotChunk{From: g.rt.ID(), Applied: g.certIndex, Since: since}
	size := 0
	for _, ent := range entries {
		esz := len(ent.Key)
		for _, v := range ent.Versions {
			esz += 20 + len(v.Value)
		}
		if size > 0 && size+esz > snapshotChunkBytes {
			chunks = append(chunks, cur)
			cur = &message.SnapshotChunk{From: g.rt.ID(), Applied: g.certIndex, Since: since}
			size = 0
		}
		cur.Entries = append(cur.Entries, ent)
		size += esz
	}
	chunks = append(chunks, cur) // always at least one (carries the stack)
	cur.Last = true
	cur.Stack = g.stack.ExportSync()
	carried := g.export()
	cur.Pending, cur.Shard = carried.Pending, carried.Shard
	var wire []byte // scratch: each chunk is encoded once more to count its bytes
	for i, c := range chunks {
		c.Seq = i
		g.stats.StateChunksSent++
		wire = message.AppendMessage(wire[:0], c)
		g.stats.StateBytesSent += int64(len(wire))
		g.stats.StateEntriesSent += int64(len(c.Entries))
		g.rt.Send(to, c)
	}
	mode := "delta"
	if since == 0 {
		mode = "full"
	}
	g.rt.Logf("%s: sent %s state transfer to %v: %d entries in %d chunks (applied %d, since %d)",
		g.name, mode, to, len(entries), len(chunks), g.certIndex, since)
}

// onSnapshotChunk buffers one piece of a chunked state transfer and
// installs the whole set once every chunk has arrived. Chunks may reorder
// in flight; (From, Applied, Since) identifies the transfer generation and
// a newer generation discards a stale partial one.
func (g *replicaGroup) onSnapshotChunk(c *message.SnapshotChunk) {
	// Accept when resynchronizing, or when a gap outran the donor's
	// retransmission window and the transfer is genuinely ahead.
	if !g.stale && c.Applied <= g.certIndex {
		return
	}
	if c.From != g.chunkFrom || c.Applied != g.chunkApplied || c.Since != g.chunkSince {
		if len(g.chunkBuf) > 0 && c.Applied < g.chunkApplied {
			return // stale straggler from an older transfer
		}
		g.chunkFrom, g.chunkApplied, g.chunkSince = c.From, c.Applied, c.Since
		g.chunkBuf = make(map[int]*message.SnapshotChunk)
		g.chunkLast = -1
	}
	g.chunkBuf[c.Seq] = c
	if c.Last {
		g.chunkLast = c.Seq
	}
	if g.chunkLast < 0 || len(g.chunkBuf) != g.chunkLast+1 {
		return // incomplete
	}
	var entries []message.SnapshotEntry
	for i := 0; i <= g.chunkLast; i++ {
		entries = append(entries, g.chunkBuf[i].Entries...)
	}
	last := g.chunkBuf[g.chunkLast]
	g.chunkBuf = nil
	g.chunkLast = -1
	g.installState(entries, last)
}

// installState adopts a completed state transfer — entries, plus the
// frontiers and carriage of its last chunk — and fast-forwards the ordered
// stream past it. Since > 0 marks a delta computed against our own applied
// index: the entries merge into the existing chains instead of replacing
// the store wholesale.
func (g *replicaGroup) installState(entries []message.SnapshotEntry, last *message.SnapshotChunk) {
	if last.Since > 0 {
		g.store.MergeDelta(entries, last.Applied)
	} else {
		g.store.Restore(entries, last.Applied)
		g.lastCommit = make(map[message.Key]uint64, len(entries))
	}
	g.noteCommitted(entries)
	g.certIndex = last.Applied
	g.blocked = make(map[message.Key]*blockSet)
	g.resume(carriage{Pending: last.Pending, Shard: last.Shard}, true, last.Stack, last.Applied+1)
	g.stale = false
	g.lastGap = 0
	g.rt.Logf("%s: resynchronized at index %d (%d keys, since %d)", g.name, last.Applied, len(entries), last.Since)
}

// resume hands the engine a donor's carriage, imports the donor's stack
// frontiers, and fast-forwards the ordered stream to next (0 leaves it
// where it is).
func (g *replicaGroup) resume(c carriage, transfer bool, stack *message.StackSync, next uint64) {
	resumed := g.installed(c, transfer)
	g.stack.ImportSync(stack)
	g.stack.SkipTo(next)
	if resumed != nil {
		resumed()
	}
}
