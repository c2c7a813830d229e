package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/broadcast"
	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/env"
	"repro/internal/message"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ErrNotReplicated is returned for a read of a key whose replication group
// this site does not replicate. Reads are served from local replicas only;
// route the transaction to a member of the key's group instead.
var ErrNotReplicated = errors.New("core: key's replication group not replicated at this site")

// ShardedEngine is protocol A lifted to partial replication (after Sutra &
// Shapiro): the keyspace is split across replication groups by a
// deterministic consistent-hash ring, and each group runs its own atomic
// broadcast/ordering instance, store, WAL, and checkpointer over just its
// member sites. Traffic of group g travels wrapped in message.GroupMsg
// envelopes so one site hosts several independent stacks.
//
// A transaction whose footprint stays inside one group commits exactly
// like the fully replicated engine, scoped to that group: one atomic
// broadcast of the certification request, deterministic certification at
// the group-local total-order index, zero acknowledgements. A home site
// outside the group forwards the request to the group's leader (lowest
// member), which broadcasts on its behalf and reports the outcome back.
//
// A transaction touching several groups runs the certification logic as a
// vote-collection round: the coordinator (home site) sends each touched
// group its sub-writeset in a ShardPrepare, every group orders and
// certifies it locally — blocking the prepare's footprint against
// concurrent conflicting transactions until the outcome — and unicasts
// its deterministic verdict to the coordinator, which commits iff every
// group voted yes and closes the round with a ShardDecision broadcast per
// group. The client is acknowledged only after every touched group has
// durably processed the decision: directly where the coordinator
// replicates the group, and via the group leader's ShardOutcome unicast
// elsewhere — so a true ack means durably committed in every group, the
// same contract as the fully replicated engines. Conflicts abort (never
// wait), and the per-group total order is the deterministic tie-break: of
// two overlapping prepares the one ordered first wins.
//
// Writes are always piggybacked on the certification request (there is no
// causal write dissemination under sharding) and certification checks read
// base versions only: writes are blind and serialize by their install
// index. Membership views are not yet integrated with the ring — the
// sharded engine runs with static membership, relying on per-group gap
// repair and state transfer for catch-up after a restart. Its failure
// detector (Config.FailureInterval) drives coordinator failover instead of
// views.
type ShardedEngine struct {
	*base
	ring       *shard.Ring
	groups     map[message.GroupID]*shardGroup
	homeGroups []message.GroupID // groups replicated here, ascending
	coord      map[message.TxnID]*coordState
	// term tracks termination rounds this site runs as successor for
	// prepares whose coordinator is suspected (Config.FailureInterval > 0).
	term map[message.TxnID]*termState
}

// shardGroup is one locally replicated shard: a replicaGroup on the group
// runtime, plus the state of the cross-shard rounds ordered in it.
type shardGroup struct {
	*replicaGroup
	id  message.GroupID
	eng *ShardedEngine

	prepared map[message.TxnID]*preparedSub
	// decided records the outcome of every ShardDecision ordered in this
	// group (bounded FIFO, see decidedRetention): duplicates from a
	// successor racing a resurrected coordinator are skipped entirely, and
	// a termination query ordered after the decision is answered with the
	// decision instead of "not prepared".
	decided      map[message.TxnID]bool
	decidedOrder []message.TxnID
	// fenced marks transactions a termination query was ordered for before
	// their prepare: any prepare of a fenced transaction ordered later is
	// refused (vote no, hold nothing), which keeps every member's query
	// answer — and therefore the successor's decision — deterministic.
	fenced map[message.TxnID]bool
}

var _ Engine = (*ShardedEngine)(nil)

// NewSharded creates a partially replicated protocol A engine on rt. Group
// placement is static: the failure detector Config.FailureInterval enables
// drives coordinator failover, not views.
func NewSharded(rt env.Runtime, cfg Config) (*ShardedEngine, error) {
	if cfg.Shard == nil {
		return nil, errors.New("core: NewSharded requires Config.Shard")
	}
	ring, err := shard.NewRing(*cfg.Shard, len(rt.Peers()))
	if err != nil {
		return nil, err
	}
	e := &ShardedEngine{
		base:   newBase(rt, cfg, "sharded"),
		ring:   ring,
		groups: make(map[message.GroupID]*shardGroup),
		coord:  make(map[message.TxnID]*coordState),
		term:   make(map[message.TxnID]*termState),
	}
	e.homeGroups = ring.SiteGroups(rt.ID())
	for _, gid := range e.homeGroups {
		e.groups[gid] = newShardGroup(e, gid, cfg)
	}
	// With a detector, a suspected coordinator's prepares are terminated by
	// a successor instead of blocking until the coordinator restarts.
	e.initDetector(func(message.SiteID) { e.scanOrphans() }, nil)
	return e, nil
}

func newShardGroup(e *ShardedEngine, gid message.GroupID, cfg Config) *shardGroup {
	var st *storage.Store
	if cfg.GroupInitialStore != nil {
		st = cfg.GroupInitialStore(gid)
	}
	if st == nil {
		var w *storage.WAL
		if cfg.GroupWAL != nil {
			w = cfg.GroupWAL(gid)
		}
		st = storage.New(w)
	}
	g := &shardGroup{
		id:       gid,
		eng:      e,
		prepared: make(map[message.TxnID]*preparedSub),
		decided:  make(map[message.TxnID]bool),
		fenced:   make(map[message.TxnID]bool),
	}
	grt := broadcast.GroupRuntime(e.rt, gid, func() []message.SiteID { return e.ring.Members(gid) })
	g.replicaGroup = &replicaGroup{
		base: e.base, rt: grt, view: grt.Peers, store: st, pipe: e.newPipeline(st),
		export:    func() carriage { return carriage{Shard: g.exportShard()} },
		installed: g.adoptShard,
	}
	var pol checkpoint.Policy
	if cfg.GroupCheckpoint != nil {
		pol = cfg.GroupCheckpoint(gid)
	}
	var stack *message.StackSync
	if cfg.GroupInitialStack != nil {
		stack = cfg.GroupInitialStack(gid)
	}
	g.open(g.deliver, pol, stack)
	if cfg.GroupInitialShard != nil {
		if sr := cfg.GroupInitialShard(gid); sr != nil {
			g.restoreShard(sr)
		}
	}
	return g
}

// Start implements env.Node.
func (e *ShardedEngine) Start() {
	for _, gid := range e.homeGroups {
		e.groups[gid].ckpt.Start()
	}
	if len(e.homeGroups) > 0 {
		e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	}
	e.start() // the detector: no views, and the checkpointers are the groups'
	if e.det != nil {
		e.rt.SetTimer(e.rescanInterval(), e.orphanTick)
	}
}

// gapProbe runs every local group's gap detector.
func (e *ShardedEngine) gapProbe() {
	defer e.rt.SetTimer(e.probeInterval(), e.gapProbe)
	for _, gid := range e.homeGroups {
		e.groups[gid].probe()
	}
}

// Receive implements env.Node.
func (e *ShardedEngine) Receive(from message.SiteID, m message.Message) {
	if e.receiveFailure(from, m) {
		return
	}
	switch t := m.(type) {
	case *message.GroupMsg:
		g := e.groups[t.Group]
		if g == nil {
			e.rt.Logf("sharded: %v traffic for unreplicated group %v from %v", t.Inner.Kind(), t.Group, from)
			return
		}
		if !g.receive(from, t.Inner) {
			e.rt.Logf("sharded: unexpected group %v payload %v from %v", g.id, t.Inner.Kind(), from)
		}
	case *message.ShardForward:
		e.onForward(from, t)
	case *message.ShardVote:
		e.onVote(t)
	case *message.ShardOutcome:
		e.onOutcome(t)
	case *message.CoordStatus:
		e.onCoordStatus(t)
	default:
		e.rt.Logf("sharded: unexpected %v from %v", m.Kind(), from)
	}
}

// Begin implements Engine: the transaction reads each local group at its
// current group-local certification index.
func (e *ShardedEngine) Begin(readOnly bool) *Tx {
	tx := e.begin(readOnly)
	tx.gsnap = make(map[message.GroupID]uint64, len(e.homeGroups))
	for _, gid := range e.homeGroups {
		tx.gsnap[gid] = e.groups[gid].certIndex
	}
	return tx
}

// Read implements Engine: a snapshot read against the key's group-local
// replica. Keys of groups this site does not replicate cannot be read here.
func (e *ShardedEngine) Read(tx *Tx, key message.Key, cb func(message.Value, error)) {
	if err := e.readPrecheck(tx); err != nil {
		cb(nil, err)
		return
	}
	gid := e.ring.GroupOf(key)
	g := e.groups[gid]
	if g == nil {
		cb(nil, fmt.Errorf("%w: %q in %v", ErrNotReplicated, key, gid))
		return
	}
	val, ver, err := snapshotRead(tx, g.store, key, tx.gsnap[gid])
	if err != nil {
		cb(nil, err)
		return
	}
	if tx.greads == nil {
		tx.greads = make(map[message.GroupID][]message.KeyVer)
	}
	tx.greads[gid] = append(tx.greads[gid], ver)
	cb(val, nil)
}

// Write implements Engine: writes buffer locally and travel piggybacked on
// the certification round at commit.
func (e *ShardedEngine) Write(tx *Tx, key message.Key, val message.Value) error {
	return e.bufferWrite(tx, key, val)
}

// Commit implements Engine: a single-group footprint is one atomic
// broadcast within the group; a multi-group footprint opens the
// vote-collection round.
func (e *ShardedEngine) Commit(tx *Tx, cb func(Outcome, AbortReason)) {
	if tx.state == txDone {
		cb(tx.outcome, tx.reason)
		return
	}
	tx.commitCB = cb
	if tx.state == txCommitWait {
		return
	}
	if !tx.wrote {
		// Read-only: snapshot reads within each group need no round.
		e.finish(tx, Committed, ReasonNone)
		return
	}
	tx.state = txCommitWait
	tx.commitAt = e.rt.Now()
	writes := message.DedupWrites(tx.writes)
	wByGroup := make(map[message.GroupID][]message.KV)
	for _, w := range writes {
		gid := e.ring.GroupOf(w.Key)
		wByGroup[gid] = append(wByGroup[gid], w)
	}
	touched := touchedGroups(wByGroup, tx.greads)
	e.tr.Point(tx.ID, trace.KindCommitReq, 0, e.rt.ID(), int64(len(touched)))
	if len(touched) == 1 {
		gid := touched[0]
		kvs := wByGroup[gid]
		req := &message.CommitReq{
			Txn:     tx.ID,
			Reads:   tx.greads[gid],
			NWrites: len(kvs),
			WriteKV: kvs,
		}
		e.sendToGroup(gid, req)
		return
	}
	cs := &coordState{groups: touched, votes: make(map[message.GroupID]bool, len(touched)), since: e.rt.Now()}
	e.coord[tx.ID] = cs
	e.tr.Point(tx.ID, trace.KindShardCoord, groupMask(touched), e.rt.ID(), int64(len(touched)))
	for _, gid := range touched {
		e.sendToGroup(gid, &message.ShardPrepare{
			Txn:     tx.ID,
			Group:   gid,
			Coord:   e.rt.ID(),
			Groups:  touched,
			Reads:   tx.greads[gid],
			WriteKV: wByGroup[gid],
		})
	}
}

// touchedGroups returns the ascending union of the write and read groups.
func touchedGroups(writes map[message.GroupID][]message.KV, reads map[message.GroupID][]message.KeyVer) []message.GroupID {
	seen := make(map[message.GroupID]bool, len(writes)+len(reads))
	var out []message.GroupID
	for gid := range writes {
		if !seen[gid] {
			seen[gid] = true
			out = append(out, gid)
		}
	}
	for gid := range reads {
		if !seen[gid] {
			seen[gid] = true
			out = append(out, gid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// groupMask packs a touched-group set into a span Seq bitmask (groups are
// capped far below 64 by the site count).
func groupMask(groups []message.GroupID) uint64 {
	var m uint64
	for _, g := range groups {
		if g < 64 {
			m |= 1 << uint(g)
		}
	}
	return m
}

// sendToGroup atomically broadcasts payload within group gid: directly on
// the local stack when this site is a member, otherwise routed through the
// group's leader.
func (e *ShardedEngine) sendToGroup(gid message.GroupID, payload message.Message) {
	if g := e.groups[gid]; g != nil {
		g.stack.Broadcast(message.ClassAtomic, payload)
		return
	}
	e.rt.Send(e.ring.Leader(gid), &message.ShardForward{Group: gid, Req: payload})
}

// onForward broadcasts a routed payload within the group on behalf of a
// non-member origin.
func (e *ShardedEngine) onForward(from message.SiteID, f *message.ShardForward) {
	g := e.groups[f.Group]
	if g == nil {
		e.rt.Logf("sharded: forward for unreplicated group %v from %v", f.Group, from)
		return
	}
	g.stack.Broadcast(message.ClassAtomic, f.Req)
}

// Abort implements Engine: writes are buffered only, so nothing remote
// exists yet.
func (e *ShardedEngine) Abort(tx *Tx) {
	if tx.state != txActive {
		return
	}
	e.finish(tx, Aborted, ReasonClient)
}

// deliver handles this group's ordered stream.
func (g *shardGroup) deliver(d broadcast.Delivery) {
	switch p := d.Payload.(type) {
	case *message.CommitReq:
		g.onOrderedCommit(d.Index, p)
	case *message.ShardPrepare:
		g.onOrderedPrepare(d.Index, p)
	case *message.ShardDecision:
		g.onOrderedDecision(d.Index, p)
	case *message.CoordQuery:
		g.onOrderedQuery(d.Index, p)
	default:
		g.eng.rt.Logf("sharded: group %v unexpected ordered payload %v", g.id, p.Kind())
	}
}

// onOrderedCommit certifies and (on success) installs a single-group
// transaction at its group-local order index — the fully replicated
// engine's deterministic rule, scoped to the group.
func (g *shardGroup) onOrderedCommit(idx uint64, req *message.CommitReq) {
	g.certIndex = idx
	e := g.eng
	ok := g.certify(req.Reads, nil, req.WriteKV)
	e.tr.Point(req.Txn, trace.KindShardCert, idx, message.SiteID(g.id), boolExtra(ok))
	var ack func(bool)
	if e.local[req.Txn] != nil || g.reportsFor(req.Txn.Site) {
		ack = func(committed bool) { g.ackSingle(req.Txn, committed) }
	}
	g.submitOne(req.Txn, idx, req.WriteKV, ok, ack)
}

// ackSingle resolves a single-group commit once it is durable: finish the
// local transaction, or — when the origin is not a group member — have the
// leader (deterministically one site) report the outcome back.
func (g *shardGroup) ackSingle(txn message.TxnID, committed bool) {
	e := g.eng
	if tx := e.local[txn]; tx != nil {
		e.finishCertified(tx, committed)
		return
	}
	if g.reportsFor(txn.Site) {
		e.rt.Send(txn.Site, &message.ShardOutcome{Txn: txn, Commit: committed})
	}
}

// reportsFor reports whether this site tells origin the outcome of what
// the group orders on its behalf: origin is no member, and this site is the
// group's leader (deterministically one site).
func (g *shardGroup) reportsFor(origin message.SiteID) bool {
	return !g.eng.ring.Replicates(g.id, origin) && g.eng.ring.Leader(g.id) == g.eng.rt.ID()
}

// --- Accessors.

// Ring exposes the key→group mapping (routing, tests, tools).
func (e *ShardedEngine) Ring() *shard.Ring { return e.ring }

// LocalGroups returns the groups replicated at this site, ascending.
func (e *ShardedEngine) LocalGroups() []message.GroupID { return e.homeGroups }

// GroupStore returns one local group's store (nil if not replicated here).
func (e *ShardedEngine) GroupStore(gid message.GroupID) *storage.Store {
	if g := e.groups[gid]; g != nil {
		return g.store
	}
	return nil
}

// GroupCertIndex returns one local group's last processed order index.
func (e *ShardedEngine) GroupCertIndex(gid message.GroupID) uint64 {
	if g := e.groups[gid]; g != nil {
		return g.certIndex
	}
	return 0
}

// GroupPipeline returns one local group's commit pipeline.
func (e *ShardedEngine) GroupPipeline(gid message.GroupID) *commitpipe.Pipeline {
	if g := e.groups[gid]; g != nil {
		return g.pipe
	}
	return nil
}

// GroupCheckpointer returns one local group's checkpointer (nil when that
// group's policy is disabled).
func (e *ShardedEngine) GroupCheckpointer(gid message.GroupID) *checkpoint.Checkpointer {
	if g := e.groups[gid]; g != nil {
		return g.ckpt
	}
	return nil
}

// FlushPipelines flushes every local group's commit pipeline (shutdown).
func (e *ShardedEngine) FlushPipelines() {
	for _, gid := range e.homeGroups {
		e.groups[gid].pipe.Flush()
	}
}

// Store implements Engine: the first local group's store (tools and tests
// that assume one store; use GroupStore for a specific group).
func (e *ShardedEngine) Store() *storage.Store {
	if len(e.homeGroups) > 0 {
		return e.groups[e.homeGroups[0]].store
	}
	return e.base.Store()
}

// Pipeline implements Engine: the first local group's pipeline.
func (e *ShardedEngine) Pipeline() *commitpipe.Pipeline {
	if len(e.homeGroups) > 0 {
		return e.groups[e.homeGroups[0]].pipe
	}
	return e.base.Pipeline()
}

// Checkpointer implements Engine: the first local group's checkpointer.
func (e *ShardedEngine) Checkpointer() *checkpoint.Checkpointer {
	if len(e.homeGroups) > 0 {
		return e.groups[e.homeGroups[0]].ckpt
	}
	return nil
}

// PendingCoord returns in-flight cross-shard rounds this site coordinates
// plus certified-undecided prepares across local groups (leak oracle).
func (e *ShardedEngine) PendingCoord() int {
	n := len(e.coord)
	for _, gid := range e.homeGroups {
		n += len(e.groups[gid].prepared)
	}
	return n
}

// OrphanedPrepares counts certified-undecided prepares across local groups
// whose coordinator is currently unable to decide them — the termination
// protocol's working set (STATS failover visibility).
func (e *ShardedEngine) OrphanedPrepares() int {
	if e.det == nil {
		return 0
	}
	n := 0
	for _, gid := range e.homeGroups {
		for txn, sub := range e.groups[gid].prepared {
			if e.coordDead(txn, sub.coord) {
				n++
			}
		}
	}
	return n
}

func boolExtra(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
