package message

import (
	"encoding/gob"
	"fmt"

	"repro/internal/vclock"
)

// Kind discriminates wire message types for dispatch and metrics.
type Kind int

// All message kinds, grouped by the layer that owns them.
const (
	// Broadcast layer.
	KindBcast Kind = iota + 1
	KindSeqOrder
	KindIsisPropose
	KindIsisFinal

	// Failure detection and membership.
	KindHeartbeat
	KindViewPropose
	KindViewAck
	KindViewInstall
	KindStateRequest
	_ // 10: the retired monolithic StateSnapshot; reserved so later kinds keep their wire values
	KindRetransmitReq

	// Replication protocol payloads (carried inside Bcast or sent unicast).
	KindWriteReq
	KindWriteAck
	KindTxnNack
	KindVoteReq
	KindVote
	KindDecision
	KindCommitReq
	KindCausalNull
	KindWriteBatch

	// Point-to-point baseline. It unicasts protocol R's kinds above; the
	// values of its five retired copies of them stay reserved so later
	// kinds keep their wire values.
	_ // 21: the retired baseline write (now WriteReq)
	_ // 22: the retired baseline write acknowledgement (now WriteAck)
	KindWound
	_ // 24: the retired baseline prepare (now VoteReq)
	_ // 25: the retired baseline prepare vote (now Vote)
	_ // 26: the retired baseline decision (now Decision)

	// Quorum (weighted-voting) baseline.
	KindQReadReq
	KindQReadReply
	KindQLockReq
	KindQLockReply
	KindQCommit
	KindQRelease

	// Broadcast-stack state transfer (appended so existing kind values are
	// stable).
	KindSyncState

	_ // 34: the retired BatchOrder (the batch orderer announces in SeqOrder); reserved so later kinds keep their wire values

	// Chunked state transfer (appended so existing kind values are stable).
	KindSnapshotChunk

	// Partial replication (appended so existing kind values are stable).
	KindGroupMsg
	KindShardPrepare
	KindShardVote
	KindShardDecision
	KindShardForward
	KindShardOutcome

	// Cross-shard coordinator failover (appended so existing kind values
	// are stable).
	KindCoordQuery
	KindCoordStatus
)

var kindNames = map[Kind]string{
	KindBcast:         "Bcast",
	KindSeqOrder:      "SeqOrder",
	KindIsisPropose:   "IsisPropose",
	KindIsisFinal:     "IsisFinal",
	KindHeartbeat:     "Heartbeat",
	KindViewPropose:   "ViewPropose",
	KindViewAck:       "ViewAck",
	KindViewInstall:   "ViewInstall",
	KindStateRequest:  "StateRequest",
	KindRetransmitReq: "RetransmitReq",
	KindWriteReq:      "WriteReq",
	KindWriteAck:      "WriteAck",
	KindTxnNack:       "TxnNack",
	KindVoteReq:       "VoteReq",
	KindVote:          "Vote",
	KindDecision:      "Decision",
	KindCommitReq:     "CommitReq",
	KindCausalNull:    "CausalNull",
	KindWriteBatch:    "WriteBatch",
	KindWound:         "Wound",
	KindQReadReq:      "QReadReq",
	KindQReadReply:    "QReadReply",
	KindQLockReq:      "QLockReq",
	KindQLockReply:    "QLockReply",
	KindQCommit:       "QCommit",
	KindQRelease:      "QRelease",
	KindSyncState:     "SyncState",
	KindSnapshotChunk: "SnapshotChunk",
	KindGroupMsg:      "GroupMsg",
	KindShardPrepare:  "ShardPrepare",
	KindShardVote:     "ShardVote",
	KindShardDecision: "ShardDecision",
	KindShardForward:  "ShardForward",
	KindShardOutcome:  "ShardOutcome",
	KindCoordQuery:    "CoordQuery",
	KindCoordStatus:   "CoordStatus",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Message is the interface satisfied by every wire message.
type Message interface {
	Kind() Kind
}

// Class selects a broadcast primitive. The three replication protocols are
// named after the class their write/commit traffic uses.
type Class int

// Broadcast classes in increasing order of delivery guarantees.
const (
	ClassReliable Class = iota + 1 // delivery, no ordering across senders
	_                              // 2: the retired FIFO class; reserved so later classes keep their wire values
	ClassCausal                    // causal order, vector clocks exposed
	ClassAtomic                    // total order
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassReliable:
		return "reliable"
	case ClassCausal:
		return "causal"
	case ClassAtomic:
		return "atomic"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Bcast is the broadcast envelope: a payload stamped with its origin,
// per-origin sequence number, class, and (for causal messages) the origin's
// vector clock at send time.
type Bcast struct {
	Class   Class
	Origin  SiteID
	Seq     uint64 // per-origin, per-class sequence number, starting at 1
	VC      vclock.VC
	Payload Message
	Relayed bool // set when forwarded by a non-origin site
	// Trace is the transaction the payload belongs to (zero for
	// non-transactional traffic such as causal nulls). It propagates the
	// trace ID through the broadcast stack so remote-site spans stitch
	// into the home site's trace (internal/trace).
	Trace TxnID
}

// Kind implements Message.
func (*Bcast) Kind() Kind { return KindBcast }

// OrderEntry assigns a global total-order index to one atomic broadcast.
type OrderEntry struct {
	Origin SiteID
	Seq    uint64
	Index  uint64
}

// SeqOrder announces total-order indices assigned by the ordering leader:
// one entry per message from the fixed sequencer, one contiguous range per
// sealed batch from the batch orderer.
type SeqOrder struct {
	Sequencer SiteID
	Entries   []OrderEntry
}

// Kind implements Message.
func (*SeqOrder) Kind() Kind { return KindSeqOrder }

// NewSeqOrder returns an empty announcement with room for n entries. With
// n == 1 — every announcement of the fixed sequencer — the entry shares the
// message's allocation; with n == 0 Entries stays nil.
func NewSeqOrder(sequencer SiteID, n int) *SeqOrder {
	switch n {
	case 0:
		return &SeqOrder{Sequencer: sequencer}
	case 1:
		x := &struct {
			SeqOrder
			entry [1]OrderEntry
		}{SeqOrder: SeqOrder{Sequencer: sequencer}}
		x.Entries = x.entry[:0]
		return &x.SeqOrder
	}
	return &SeqOrder{Sequencer: sequencer, Entries: make([]OrderEntry, 0, n)}
}

// IsisPropose carries a receiver's proposed timestamp for an atomic
// broadcast in the ISIS-style agreed-timestamp variant.
type IsisPropose struct {
	Origin   SiteID // origin of the message being ordered
	Seq      uint64
	Proposer SiteID
	TS       uint64
}

// Kind implements Message.
func (*IsisPropose) Kind() Kind { return KindIsisPropose }

// IsisFinal fixes the agreed timestamp of an atomic broadcast in the
// ISIS-style variant.
type IsisFinal struct {
	Origin SiteID
	Seq    uint64
	TS     uint64
	Tie    SiteID // proposer whose timestamp won, breaks TS ties
}

// Kind implements Message.
func (*IsisFinal) Kind() Kind { return KindIsisFinal }

// Heartbeat is the failure detector's liveness probe.
type Heartbeat struct {
	From   SiteID
	ViewID uint64
}

// Kind implements Message.
func (*Heartbeat) Kind() Kind { return KindHeartbeat }

// View is a membership configuration: an identifier plus the member set.
// Only views containing a majority of the full cluster may commit
// transactions (primary-partition rule).
type View struct {
	ID      uint64
	Members []SiteID
}

// Has reports whether s is a member of the view.
func (v View) Has(s SiteID) bool {
	for _, m := range v.Members {
		if m == s {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (v View) String() string { return fmt.Sprintf("view%d%v", v.ID, v.Members) }

// ViewPropose asks the recipients to install a new view.
type ViewPropose struct {
	Proposer SiteID
	View     View
}

// Kind implements Message.
func (*ViewPropose) Kind() Kind { return KindViewPropose }

// ViewAck accepts a proposed view.
type ViewAck struct {
	By     SiteID
	ViewID uint64
}

// Kind implements Message.
func (*ViewAck) Kind() Kind { return KindViewAck }

// ViewInstall finalizes a view once the proposer has gathered acks from
// every proposed member.
type ViewInstall struct {
	View View
}

// Kind implements Message.
func (*ViewInstall) Kind() Kind { return KindViewInstall }

// StateRequest asks a peer for a state transfer, used when a recovered site
// rejoins the primary partition. HaveIndex is the requester's applied
// commit index: a donor that still retains versions above it ships only the
// delta (HaveIndex 0 requests the full state).
type StateRequest struct {
	From      SiteID
	HaveIndex uint64
}

// Kind implements Message.
func (*StateRequest) Kind() Kind { return KindStateRequest }

// VersionRec is one committed version of a key inside a snapshot.
type VersionRec struct {
	Index  uint64
	Writer TxnID
	Value  Value
}

// SnapshotEntry is one key's version chain (or chain suffix, in a delta
// transfer) inside a snapshot.
type SnapshotEntry struct {
	Key      Key
	Versions []VersionRec
	// Replace marks a delta entry whose donor chain was GC'd below the
	// requested since-index: the receiver must swap its whole chain for
	// Versions (and mark the key truncated) instead of appending.
	Replace bool
}

// StackSync carries a donor's broadcast-stack progress frontiers so a state
// transfer also resynchronizes the delivery machinery, not just the store.
// Without it a restarted site re-enters with zeroed per-origin expectations:
// it would hold back every peer's next causal message forever (expecting
// seq 1) and reuse its own send sequence numbers, which peers then discard
// as duplicates.
type StackSync struct {
	// CausalVC is the donor's delivered-causal-message vector; the receiver
	// max-merges it so delivery resumes at the cluster's frontier. The
	// receiver's own entry doubles as its causal send-sequence floor.
	CausalVC vclock.VC
	// HighSeq records, per class and origin, the highest broadcast sequence
	// the donor has seen. A rejoining site resumes its own numbering above
	// its entry so new broadcasts are not mistaken for replays.
	HighSeq map[Class]map[SiteID]uint64
	// Held are broadcasts buffered undelivered at the donor (causal holds,
	// unordered atomic payloads), replayed at the receiver so it
	// does not wait on messages peers will never resend.
	Held []*Bcast
}

// SnapshotChunk is one piece of a chunked state transfer. The donor splits
// the snapshot (or, when the requester's applied index is recent enough,
// just the delta above it) into bounded-size chunks so a rejoining site
// catches up in O(delta) bytes instead of receiving one monolithic blob.
// Chunks of one transfer share (From, Applied, Since);
// Seq runs 0..N-1 and the chunk with Last set carries the broadcast-stack
// frontiers and in-flight writes, which the receiver installs only once the
// whole set has arrived.
type SnapshotChunk struct {
	From    SiteID
	Applied uint64 // commit index the transfer reflects
	Since   uint64 // requester index the delta starts above (0 = full state)
	Seq     int    // chunk position within the transfer
	Last    bool   // set on the final chunk
	Entries []SnapshotEntry
	// Stack and Pending ride only the final chunk (nil elsewhere). Stack
	// resynchronizes the donor's broadcast-stack frontiers alongside the
	// store contents; Pending is the donor's in-flight write dissemination
	// (writes delivered but not yet consumed by certification), keyed by
	// transaction.
	Stack   *StackSync
	Pending map[TxnID][]KV
	// Shard rides the final chunk of a per-group transfer under partial
	// replication: the donor's cross-shard certification state (prepares,
	// remembered decisions, fences) at Applied.
	Shard *ShardRecovery
}

// Kind implements Message.
func (*SnapshotChunk) Kind() Kind { return KindSnapshotChunk }

// SyncState piggybacks the donor's stack frontiers and in-flight writes on
// the gap-repair (retransmission) path, where no full snapshot is sent.
type SyncState struct {
	From    SiteID
	Stack   *StackSync
	Pending map[TxnID][]KV
}

// Kind implements Message.
func (*SyncState) Kind() Kind { return KindSyncState }

// RetransmitReq asks a peer to resend the totally ordered atomic
// broadcasts from the given index: the gap-repair path a resynchronizing
// site uses after state transfer. Applied is the requester's applied commit
// index; when the donor's retention no longer covers FromIndex it falls
// back to a state transfer computed against Applied (0 = full state).
type RetransmitReq struct {
	From      SiteID
	FromIndex uint64
	Applied   uint64
}

// Kind implements Message.
func (*RetransmitReq) Kind() Kind { return KindRetransmitReq }

// WriteReq replicates one write operation of an update transaction. In
// protocol R it travels by reliable broadcast, in protocols C and A by
// causal broadcast, and the ROWA baseline unicasts it to every site.
type WriteReq struct {
	Txn   TxnID
	OpSeq int // position among the transaction's writes, starting at 1
	Key   Key
	Value Value
}

// Kind implements Message.
func (*WriteReq) Kind() Kind { return KindWriteReq }

// WriteAck is the explicit per-operation acknowledgement of protocol R and
// the baseline, unicast back to the transaction's home site. OK=false is a
// negative acknowledgement: the write conflicted and the transaction must
// abort (only protocol R sends one; the baseline's writes wait for locks).
type WriteAck struct {
	Txn   TxnID
	OpSeq int
	By    SiteID
	OK    bool
}

// Kind implements Message.
func (*WriteAck) Kind() Kind { return KindWriteAck }

// TxnNack is protocol C's explicit negative acknowledgement, broadcast
// causally so every site — not just the home site — learns of the conflict.
type TxnNack struct {
	Txn TxnID
	By  SiteID
	Key Key
}

// Kind implements Message.
func (*TxnNack) Kind() Kind { return KindTxnNack }

// VoteReq starts a two-phase commit: protocol R broadcasts it for its
// decentralized commit, and the baseline's coordinator unicasts it as the
// prepare of its centralized one.
type VoteReq struct {
	Txn TxnID
}

// Kind implements Message.
func (*VoteReq) Kind() Kind { return KindVoteReq }

// Vote is one site's vote in a two-phase commit. Protocol R broadcasts it
// to all sites so each site tallies the outcome independently; the
// baseline unicasts it to the coordinator.
type Vote struct {
	Txn TxnID
	By  SiteID
	Yes bool
}

// Kind implements Message.
func (*Vote) Kind() Kind { return KindVote }

// Decision announces a transaction's outcome (protocol R: the home site's
// abort on a negative acknowledgement; protocol C: the home site's
// commit/abort decision after implicit acknowledgements; the baseline: the
// coordinator's phase-two decision, unicast to every site). NOps carries the
// number of write operations the home site broadcast, so receivers can
// garbage-collect the transaction's tombstone once every straggler
// operation has arrived (reliable broadcast gives no cross-message
// ordering).
type Decision struct {
	Txn    TxnID
	Commit bool
	NOps   int
}

// Kind implements Message.
func (*Decision) Kind() Kind { return KindDecision }

// CommitReq is protocol A's certification request, delivered in total order
// by atomic broadcast. Reads and Writes carry the base versions the
// transaction observed at its home site; NWrites tells receivers how many
// WriteReq messages to await before certifying.
type CommitReq struct {
	Txn     TxnID
	Reads   []KeyVer
	Writes  []KeyVer
	NWrites int
	// WriteKV carries the write set inline: protocol A's shipped path and
	// the sharded engine. It is empty under protocol A's causal-write arm,
	// whose receivers await NWrites causal WriteReq messages instead.
	WriteKV []KV
}

// Kind implements Message.
func (*CommitReq) Kind() Kind { return KindCommitReq }

// CausalNull is an empty causal broadcast whose only purpose is to carry a
// vector clock, refreshing implicit acknowledgements when a site has been
// silent (protocol C's heartbeat).
type CausalNull struct {
	From SiteID
}

// Kind implements Message.
func (*CausalNull) Kind() Kind { return KindCausalNull }

// WriteBatch carries a transaction's entire deduplicated write set in one
// broadcast: protocols R and C send it at commit unless Config.PerOpWrites
// selects the paper's one broadcast per write operation, trading
// per-operation pipelining for far fewer messages. Receivers acquire all
// locks or refuse the whole batch.
type WriteBatch struct {
	Txn    TxnID
	Writes []KV
}

// Kind implements Message.
func (*WriteBatch) Kind() Kind { return KindWriteBatch }

// Wound tells a transaction's home site the transaction was aborted by the
// wound-wait deadlock-avoidance policy at the sender.
type Wound struct {
	Txn TxnID
	By  SiteID
}

// Kind implements Message.
func (*Wound) Kind() Kind { return KindWound }

// QReadReq asks one replica for its current version of a key under a
// shared lock (quorum baseline: reads consult a majority and take the
// highest version number [Gif79]).
type QReadReq struct {
	Txn TxnID
	Seq int // read position within the transaction
	Key Key
}

// Kind implements Message.
func (*QReadReq) Kind() Kind { return KindQReadReq }

// QReadReply returns a replica's version once its shared lock is granted.
type QReadReply struct {
	Txn    TxnID
	Seq    int
	Key    Key
	From   SiteID
	Ver    uint64
	Writer TxnID // transaction that installed the version (serializability audit)
	Value  Value
	Found  bool
}

// Kind implements Message.
func (*QReadReply) Kind() Kind { return KindQReadReply }

// QLockReq asks a replica to exclusively lock a transaction's whole write
// set (all-or-wait, wound-wait).
type QLockReq struct {
	Txn  TxnID
	Keys []Key
}

// Kind implements Message.
func (*QLockReq) Kind() Kind { return KindQLockReq }

// QLockReply reports the grant with the replica's current version numbers;
// granting doubles as the prepared-vote of the commit protocol.
type QLockReply struct {
	Txn  TxnID
	From SiteID
	Vers []KeyVer
}

// Kind implements Message.
func (*QLockReply) Kind() Kind { return KindQLockReply }

// QCommit installs a committed quorum write: each key's value at its new
// version number. Replicas that were not part of the granted quorum apply
// it too when the version advances theirs (best-effort freshness; the
// quorum intersection is what guarantees correctness).
type QCommit struct {
	Txn    TxnID
	Writes []KV
	Vers   []KeyVer
}

// Kind implements Message.
func (*QCommit) Kind() Kind { return KindQCommit }

// QRelease releases a transaction's shared locks at a replica (read-only
// quorum transactions end with this instead of a commit).
type QRelease struct {
	Txn TxnID
}

// Kind implements Message.
func (*QRelease) Kind() Kind { return KindQRelease }

// GroupMsg is the partial-replication envelope: all traffic of one
// replication group's broadcast/ordering instance (and its state-transfer
// side channel) travels wrapped with the group identifier, so one site can
// host several independent per-group stacks and route each delivery to the
// right one.
type GroupMsg struct {
	Group GroupID
	Inner Message
}

// Kind implements Message.
func (*GroupMsg) Kind() Kind { return KindGroupMsg }

// ShardPrepare opens the cross-shard certification round for one touched
// group: the coordinator's per-shard sub-writeset, atomically broadcast
// within the group so every replica certifies it at the same group-local
// order index. Reads carry base versions for certification; writes are
// blind (the group's total order serializes write-write conflicts).
// Groups lists every group the transaction touches, sorted, so replicas
// and the trace checker know the full footprint.
type ShardPrepare struct {
	Txn     TxnID
	Group   GroupID
	Coord   SiteID
	Groups  []GroupID
	Reads   []KeyVer
	WriteKV []KV
}

// Kind implements Message.
func (*ShardPrepare) Kind() Kind { return KindShardPrepare }

// ShardVote is one replica's deterministic certification verdict for a
// cross-shard prepare, unicast to the coordinator. Every replica of the
// group votes identically (same order, same rule), so the coordinator
// counts the first vote per group and ignores duplicates.
type ShardVote struct {
	Txn   TxnID
	Group GroupID
	By    SiteID
	Yes   bool
}

// Kind implements Message.
func (*ShardVote) Kind() Kind { return KindShardVote }

// ShardDecision closes the cross-shard round in one touched group:
// commit iff every touched group voted yes. It is atomically broadcast
// within the group; replicas apply the writes at the decision's own
// group-local order index (commit) or just release the prepare's key
// blocks (abort).
type ShardDecision struct {
	Txn    TxnID
	Group  GroupID
	Commit bool
}

// Kind implements Message.
func (*ShardDecision) Kind() Kind { return KindShardDecision }

// ShardForward routes a group-bound payload (single-shard CommitReq,
// ShardPrepare, or ShardDecision) to a member of a group the sender does
// not replicate — the group leader — which atomically broadcasts it
// within the group on the sender's behalf.
type ShardForward struct {
	Group GroupID
	Req   Message
}

// Kind implements Message.
func (*ShardForward) Kind() Kind { return KindShardForward }

// ShardOutcome reports an outcome the transaction's home site cannot
// observe locally, unicast by the deciding group's leader: a forwarded
// single-shard commit's certification verdict (Group unused), or — for a
// cross-shard round whose coordinator replicates no member of Group — the
// group's durable processing of the ShardDecision, so the coordinator
// acks the client only after every touched group is durable.
type ShardOutcome struct {
	Txn    TxnID
	Group  GroupID
	Commit bool
}

// Kind implements Message.
func (*ShardOutcome) Kind() Kind { return KindShardOutcome }

// PreparedShard records, inside a per-group state transfer, one
// cross-shard transaction certified at its prepare index but still
// awaiting the coordinator's decision: the receiver must re-block its
// keys and hold its writes (and the coordinator's identity, for the
// decision's durable ack) so a later ShardDecision lands correctly.
type PreparedShard struct {
	Txn    TxnID
	Index  uint64
	Vote   bool
	Coord  SiteID
	Groups []GroupID
	Keys   []Key
	Writes []KV
}

// CoordQuery is the termination protocol's status probe: when a prepare's
// coordinator is suspected, the successor (lowest live member of the
// prepare's group) atomically broadcasts one CoordQuery per touched group.
// Ordering the query inside each group's total order makes the answer
// deterministic: a group replies with its decision if one was ordered
// before the query, with its prepare vote if the prepare was, and
// otherwise installs a fence — any prepare of Txn ordered after the query
// is refused — and reports "not prepared".
type CoordQuery struct {
	Txn   TxnID
	Group GroupID
	From  SiteID // successor to reply to
}

// Kind implements Message.
func (*CoordQuery) Kind() Kind { return KindCoordQuery }

// CoordStatus is one group's deterministic answer to a CoordQuery, unicast
// to the successor. Every replica of the group answers identically (the
// query's order index fixes what it can have seen), so the successor
// counts the first status per group. Decided carries an already-ordered
// ShardDecision's outcome; otherwise Prepared/Vote report the ordered
// prepare, and Prepared=false means the group fenced the transaction.
type CoordStatus struct {
	Txn      TxnID
	Group    GroupID
	By       SiteID
	Decided  bool
	Outcome  bool
	Prepared bool
	Vote     bool
}

// Kind implements Message.
func (*CoordStatus) Kind() Kind { return KindCoordStatus }

// DecidedShard records one ordered ShardDecision outcome, carried across
// state transfers and checkpoints so a caught-up member answers
// termination queries for already-decided transactions correctly instead
// of reporting them "not prepared".
type DecidedShard struct {
	Txn    TxnID
	Commit bool
}

// ShardRecovery bundles a group's cross-shard certification state for
// state transfers and checkpoints: certified-undecided prepares (sorted by
// prepare index), remembered decision outcomes, and fences installed by
// termination queries. Carrying all three keeps every member's view of a
// transaction's fate a deterministic function of the group's ordered
// stream, restarts and snapshots included.
type ShardRecovery struct {
	Prepared []PreparedShard
	Decided  []DecidedShard
	Fenced   []TxnID
}

// RegisterGob registers every concrete message type with encoding/gob. No
// durable or wire path uses gob any more (the TCP wire and checkpoint files
// both use codec.go); it remains only because the benchmark's codec
// micro-measurement still times gob, and goes when that is re-pointed at
// AppendMessage/DecodeMessage. Safe to call more than once.
func RegisterGob() {
	gob.Register(&Bcast{})
	gob.Register(&SeqOrder{})
	gob.Register(&IsisPropose{})
	gob.Register(&IsisFinal{})
	gob.Register(&Heartbeat{})
	gob.Register(&ViewPropose{})
	gob.Register(&ViewAck{})
	gob.Register(&ViewInstall{})
	gob.Register(&StateRequest{})
	gob.Register(&RetransmitReq{})
	gob.Register(&WriteReq{})
	gob.Register(&WriteAck{})
	gob.Register(&TxnNack{})
	gob.Register(&VoteReq{})
	gob.Register(&Vote{})
	gob.Register(&Decision{})
	gob.Register(&CommitReq{})
	gob.Register(&CausalNull{})
	gob.Register(&WriteBatch{})
	gob.Register(&Wound{})
	gob.Register(&QReadReq{})
	gob.Register(&QReadReply{})
	gob.Register(&QLockReq{})
	gob.Register(&QLockReply{})
	gob.Register(&QCommit{})
	gob.Register(&QRelease{})
	gob.Register(&SyncState{})
	gob.Register(&SnapshotChunk{})
	gob.Register(&GroupMsg{})
	gob.Register(&ShardPrepare{})
	gob.Register(&ShardVote{})
	gob.Register(&ShardDecision{})
	gob.Register(&ShardForward{})
	gob.Register(&ShardOutcome{})
	gob.Register(&CoordQuery{})
	gob.Register(&CoordStatus{})
}

// TxnOf extracts the transaction a message belongs to, which doubles as
// its trace ID (internal/trace). For broadcast envelopes it prefers the
// stamped Trace field and falls back to the payload. The second return is
// false for non-transactional traffic (heartbeats, views, causal nulls,
// state transfer).
func TxnOf(m Message) (TxnID, bool) {
	switch t := m.(type) {
	case *Bcast:
		if !t.Trace.IsZero() {
			return t.Trace, true
		}
		if t.Payload != nil {
			return TxnOf(t.Payload)
		}
	case *WriteReq:
		return t.Txn, true
	case *WriteAck:
		return t.Txn, true
	case *TxnNack:
		return t.Txn, true
	case *VoteReq:
		return t.Txn, true
	case *Vote:
		return t.Txn, true
	case *Decision:
		return t.Txn, true
	case *CommitReq:
		return t.Txn, true
	case *WriteBatch:
		return t.Txn, true
	case *Wound:
		return t.Txn, true
	case *QReadReq:
		return t.Txn, true
	case *QReadReply:
		return t.Txn, true
	case *QLockReq:
		return t.Txn, true
	case *QLockReply:
		return t.Txn, true
	case *QCommit:
		return t.Txn, true
	case *QRelease:
		return t.Txn, true
	case *GroupMsg:
		if t.Inner != nil {
			return TxnOf(t.Inner)
		}
	case *ShardPrepare:
		return t.Txn, true
	case *ShardVote:
		return t.Txn, true
	case *ShardDecision:
		return t.Txn, true
	case *ShardForward:
		if t.Req != nil {
			return TxnOf(t.Req)
		}
	case *ShardOutcome:
		return t.Txn, true
	case *CoordQuery:
		return t.Txn, true
	case *CoordStatus:
		return t.Txn, true
	}
	return TxnID{}, false
}
