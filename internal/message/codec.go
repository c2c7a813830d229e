package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/vclock"
)

// Binary message codec: the encoding of every Message on the TCP wire
// (docs/PROTOCOLS.md, "Wire format"). It is hand-written and
// reflection-free.
//
//	message := kind body      kind is the one-byte Kind value; 0 where a
//	                          nested message (Bcast.Payload, GroupMsg.Inner,
//	                          ShardForward.Req) is nil
//	uint    := uvarint        uint64 fields
//	int     := zigzag varint  int, SiteID, GroupID, Class fields
//	bool    := 0x00 | 0x01
//	bytes   := uint length, then that many bytes (Key, Value)
//	slice   := uint count, then the elements
//	map     := uint count, then key/value pairs in ascending key order
//	pointer := bool present, then the struct if present
//
// Struct fields follow in declaration order with no field tags, so the
// layout of a kind is fixed once shipped: new information gets a new Kind
// appended to the const block, never a changed body.
//
// A zero count decodes as a nil slice, map or Value, which is how the gob
// encoding this replaced behaved; the engines never tell nil from empty.

// maxNesting bounds how deep messages may nest in one another on decode.
// The deepest the engines build is four (a GroupMsg carrying a
// SnapshotChunk whose StackSync holds a Bcast with its payload).
const maxNesting = 8

// Decode errors. Decoding fails closed: the first error wins and nothing
// decoded so far is returned.
var (
	errTruncated = errors.New("message: truncated")
	errVarint    = errors.New("message: malformed varint")
	errRange     = errors.New("message: integer out of range")
	errBool      = errors.New("message: boolean is neither 0 nor 1")
	errCount     = errors.New("message: count exceeds the bytes remaining")
	errNesting   = errors.New("message: messages nested too deeply")
	errNil       = errors.New("message: nil message")
	errTrailing  = errors.New("message: trailing bytes")
	errHeld      = errors.New("message: held entry is not a Bcast")
)

// AppendMessage appends m's encoding to dst and returns the extended
// slice. It does not allocate beyond growing dst, except for the two
// state-transfer kinds that carry maps (SnapshotChunk, SyncState), which
// collect and sort the map keys first so that equal messages encode to
// equal bytes. m and every message nested in it must be non-nil pointers to
// the types of this package.
//
// reprolint:noalloc
func AppendMessage(dst []byte, m Message) []byte {
	e := encoder{b: dst}
	e.message(m)
	return e.b
}

// DecodeMessage decodes exactly one message from src. It copies keys and
// values out, so src may be reused as soon as it returns.
func DecodeMessage(src []byte) (Message, error) {
	d := decoder{b: src}
	m := d.message()
	switch {
	case d.err != nil:
		return nil, d.err
	case m == nil:
		return nil, errNil
	case len(d.b) != 0:
		return nil, errTrailing
	}
	return m, nil
}

// encoder appends to b. The key slices are scratch space for emitting maps
// in ascending key order; each use works above the length it found, so
// nested messages may use them too.
type encoder struct {
	b       []byte
	sites   []SiteID
	classes []Class
	txns    []TxnID
}

// decoder consumes b. After the first failure err is set, b is empty, and
// every read returns zero, so decode functions need no error checks of
// their own.
type decoder struct {
	b     []byte
	err   error
	depth int
}

// --- primitives -------------------------------------------------------------

func (e *encoder) byte(v byte) { e.b = append(e.b, v) }

func (e *encoder) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *encoder) int(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) key(k Key) {
	e.uint(uint64(len(k)))
	e.b = append(e.b, k...)
}

func (e *encoder) value(v Value) {
	e.uint(uint64(len(v)))
	e.b = append(e.b, v...)
}

func (e *encoder) site(s SiteID) { e.int(int64(s)) }

func (e *encoder) group(g GroupID) { e.int(int64(g)) }

func (e *encoder) txn(t TxnID) {
	e.site(t.Site)
	e.uint(t.Seq)
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.varintFail(n)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.varintFail(n)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varintFail records why encoding/binary refused a varint: n == 0 means
// the buffer ended inside it, n < 0 that it overflows 64 bits.
func (d *decoder) varintFail(n int) {
	if n == 0 {
		d.fail(errTruncated)
	} else {
		d.fail(errVarint)
	}
}

// int32 decodes a SiteID, GroupID or other 32-bit signed field.
func (d *decoder) int32() int32 {
	v := d.int()
	if int64(int32(v)) != v {
		d.fail(errRange)
		return 0
	}
	return int32(v)
}

// intField decodes a field declared as int (32 bits wide on some platforms).
func (d *decoder) intField() int {
	v := d.int()
	if int64(int(v)) != v {
		d.fail(errRange)
		return 0
	}
	return int(v)
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail(errBool)
	return false
}

// count decodes the element count of a slice or map whose elements take at
// least minSize bytes each, and refuses one the remaining bytes cannot
// hold, so a hostile count never sizes an allocation.
func (d *decoder) count(minSize int) int {
	n := d.uint()
	if n > uint64(len(d.b)/minSize) {
		d.fail(errCount)
		return 0
	}
	return int(n)
}

// bytes consumes a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) key() Key { return Key(d.bytes()) }

func (d *decoder) value() Value {
	v := d.bytes()
	if len(v) == 0 {
		return nil
	}
	return slices.Clone(Value(v))
}

func (d *decoder) site() SiteID { return SiteID(d.int32()) }

func (d *decoder) group() GroupID { return GroupID(d.int32()) }

func (d *decoder) txn() TxnID {
	return TxnID{Site: d.site(), Seq: d.uint()}
}

// --- shared field groups ----------------------------------------------------

func (e *encoder) vc(v vclock.VC) {
	e.uint(uint64(len(v)))
	for _, x := range v {
		e.uint(x)
	}
}

func (d *decoder) vc() vclock.VC {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := make(vclock.VC, n)
	for i := range v {
		v[i] = d.uint()
	}
	return v
}

func (e *encoder) keys(ks []Key) {
	e.uint(uint64(len(ks)))
	for _, k := range ks {
		e.key(k)
	}
}

func (d *decoder) keys() []Key {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = d.key()
	}
	return ks
}

func (e *encoder) keyVers(kvs []KeyVer) {
	e.uint(uint64(len(kvs)))
	for _, kv := range kvs {
		e.key(kv.Key)
		e.uint(kv.Ver)
	}
}

func (d *decoder) keyVers() []KeyVer {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	kvs := make([]KeyVer, n)
	for i := range kvs {
		kvs[i] = KeyVer{Key: d.key(), Ver: d.uint()}
	}
	return kvs
}

func (e *encoder) kvs(kvs []KV) {
	e.uint(uint64(len(kvs)))
	for _, kv := range kvs {
		e.key(kv.Key)
		e.value(kv.Value)
	}
}

func (d *decoder) kvs() []KV {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: d.key(), Value: d.value()}
	}
	return kvs
}

// appendIDs and decodeIDs code a []SiteID or []GroupID.
func appendIDs[T ~int32](e *encoder, ids []T) {
	e.uint(uint64(len(ids)))
	for _, id := range ids {
		e.int(int64(id))
	}
}

func decodeIDs[T ~int32](d *decoder) []T {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ids := make([]T, n)
	for i := range ids {
		ids[i] = T(d.int32())
	}
	return ids
}

func (e *encoder) txnIDs(ts []TxnID) {
	e.uint(uint64(len(ts)))
	for _, t := range ts {
		e.txn(t)
	}
}

func (d *decoder) txnIDs() []TxnID {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	ts := make([]TxnID, n)
	for i := range ts {
		ts[i] = d.txn()
	}
	return ts
}

func (e *encoder) view(v View) {
	e.uint(v.ID)
	appendIDs(e, v.Members)
}

func (d *decoder) view() View {
	return View{ID: d.uint(), Members: decodeIDs[SiteID](d)}
}

func (e *encoder) orderEntries(es []OrderEntry) {
	e.uint(uint64(len(es)))
	for _, oe := range es {
		e.site(oe.Origin)
		e.uint(oe.Seq)
		e.uint(oe.Index)
	}
}

// seqOrder decodes a SeqOrder body; a one-entry announcement — every one
// the fixed sequencer sends — shares its allocation with the entry.
func (d *decoder) seqOrder() *SeqOrder {
	s := d.site()
	n := d.count(3)
	o := NewSeqOrder(s, n)
	for i := 0; i < n; i++ {
		o.Entries = append(o.Entries, OrderEntry{Origin: d.site(), Seq: d.uint(), Index: d.uint()})
	}
	return o
}

func (e *encoder) snapshotEntries(es []SnapshotEntry) {
	e.uint(uint64(len(es)))
	for _, se := range es {
		e.key(se.Key)
		e.uint(uint64(len(se.Versions)))
		for _, v := range se.Versions {
			e.uint(v.Index)
			e.txn(v.Writer)
			e.value(v.Value)
		}
		e.bool(se.Replace)
	}
}

func (d *decoder) snapshotEntries() []SnapshotEntry {
	n := d.count(3)
	if n == 0 {
		return nil
	}
	es := make([]SnapshotEntry, n)
	for i := range es {
		es[i].Key = d.key()
		if nv := d.count(4); nv > 0 {
			vs := make([]VersionRec, nv)
			for j := range vs {
				vs[j] = VersionRec{Index: d.uint(), Writer: d.txn(), Value: d.value()}
			}
			es[i].Versions = vs
		}
		es[i].Replace = d.bool()
	}
	return es
}

// siteSeqs encodes a map[SiteID]uint64 in ascending site order.
func (e *encoder) siteSeqs(m map[SiteID]uint64) {
	e.uint(uint64(len(m)))
	lo := len(e.sites)
	for s := range m {
		e.sites = append(e.sites, s)
	}
	slices.Sort(e.sites[lo:])
	for i := lo; i < len(e.sites); i++ {
		e.site(e.sites[i])
		e.uint(m[e.sites[i]])
	}
	e.sites = e.sites[:lo]
}

func (d *decoder) siteSeqs() map[SiteID]uint64 {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[SiteID]uint64, n)
	for i := 0; i < n; i++ {
		s := d.site()
		m[s] = d.uint()
	}
	return m
}

// pending encodes the in-flight write map in ascending transaction order
// (by site, then sequence).
func (e *encoder) pending(m map[TxnID][]KV) {
	e.uint(uint64(len(m)))
	lo := len(e.txns)
	for t := range m {
		e.txns = append(e.txns, t)
	}
	slices.SortFunc(e.txns[lo:], compareTxnWire)
	for i := lo; i < len(e.txns); i++ {
		e.txn(e.txns[i])
		e.kvs(m[e.txns[i]])
	}
	e.txns = e.txns[:lo]
}

func compareTxnWire(a, b TxnID) int {
	if a.Site != b.Site {
		return int(a.Site) - int(b.Site)
	}
	switch {
	case a.Seq < b.Seq:
		return -1
	case a.Seq > b.Seq:
		return 1
	}
	return 0
}

func (d *decoder) pending() map[TxnID][]KV {
	n := d.count(3)
	if n == 0 {
		return nil
	}
	m := make(map[TxnID][]KV, n)
	for i := 0; i < n; i++ {
		t := d.txn()
		m[t] = d.kvs()
	}
	return m
}

func (e *encoder) stackSync(s *StackSync) {
	e.bool(s != nil)
	if s == nil {
		return
	}
	e.vc(s.CausalVC)
	e.uint(0) // the retired FIFO frontier: an always-empty site map
	e.uint(uint64(len(s.HighSeq)))
	lo := len(e.classes)
	for c := range s.HighSeq {
		e.classes = append(e.classes, c)
	}
	slices.Sort(e.classes[lo:])
	for i := lo; i < len(e.classes); i++ {
		e.int(int64(e.classes[i]))
		e.siteSeqs(s.HighSeq[e.classes[i]])
	}
	e.classes = e.classes[:lo]
	e.uint(uint64(len(s.Held)))
	for _, b := range s.Held {
		e.message(b)
	}
}

func (d *decoder) stackSync() *StackSync {
	if !d.bool() {
		return nil
	}
	s := &StackSync{CausalVC: d.vc()}
	d.siteSeqs() // the retired FIFO frontier, discarded
	if n := d.count(2); n > 0 {
		s.HighSeq = make(map[Class]map[SiteID]uint64, n)
		for i := 0; i < n; i++ {
			c := Class(d.intField())
			s.HighSeq[c] = d.siteSeqs()
		}
	}
	if n := d.count(1); n > 0 {
		s.Held = make([]*Bcast, n)
		for i := range s.Held {
			b, ok := d.message().(*Bcast)
			if !ok {
				d.fail(errHeld)
				return nil
			}
			s.Held[i] = b
		}
	}
	return s
}

func (e *encoder) shardRecovery(sr *ShardRecovery) {
	e.bool(sr != nil)
	if sr == nil {
		return
	}
	e.uint(uint64(len(sr.Prepared)))
	for i := range sr.Prepared {
		p := &sr.Prepared[i]
		e.txn(p.Txn)
		e.uint(p.Index)
		e.bool(p.Vote)
		e.site(p.Coord)
		appendIDs(e, p.Groups)
		e.keys(p.Keys)
		e.kvs(p.Writes)
	}
	e.uint(uint64(len(sr.Decided)))
	for _, dec := range sr.Decided {
		e.txn(dec.Txn)
		e.bool(dec.Commit)
	}
	e.txnIDs(sr.Fenced)
}

func (d *decoder) shardRecovery() *ShardRecovery {
	if !d.bool() {
		return nil
	}
	sr := &ShardRecovery{}
	if n := d.count(8); n > 0 {
		sr.Prepared = make([]PreparedShard, n)
		for i := range sr.Prepared {
			sr.Prepared[i] = PreparedShard{
				Txn: d.txn(), Index: d.uint(), Vote: d.bool(), Coord: d.site(),
				Groups: decodeIDs[GroupID](d), Keys: d.keys(), Writes: d.kvs(),
			}
		}
	}
	if n := d.count(3); n > 0 {
		sr.Decided = make([]DecidedShard, n)
		for i := range sr.Decided {
			sr.Decided[i] = DecidedShard{Txn: d.txn(), Commit: d.bool()}
		}
	}
	sr.Fenced = d.txnIDs()
	return sr
}

// --- messages ---------------------------------------------------------------

// message encodes kind and body; a nil m is the single byte 0.
func (e *encoder) message(m Message) {
	switch t := m.(type) {
	case nil:
		e.byte(0)
	case *Bcast:
		e.byte(byte(KindBcast))
		e.int(int64(t.Class))
		e.site(t.Origin)
		e.uint(t.Seq)
		e.vc(t.VC)
		e.message(t.Payload)
		e.bool(t.Relayed)
		e.txn(t.Trace)
	case *SeqOrder:
		e.byte(byte(KindSeqOrder))
		e.site(t.Sequencer)
		e.orderEntries(t.Entries)
	case *IsisPropose:
		e.byte(byte(KindIsisPropose))
		e.site(t.Origin)
		e.uint(t.Seq)
		e.site(t.Proposer)
		e.uint(t.TS)
	case *IsisFinal:
		e.byte(byte(KindIsisFinal))
		e.site(t.Origin)
		e.uint(t.Seq)
		e.uint(t.TS)
		e.site(t.Tie)
	case *Heartbeat:
		e.byte(byte(KindHeartbeat))
		e.site(t.From)
		e.uint(t.ViewID)
	case *ViewPropose:
		e.byte(byte(KindViewPropose))
		e.site(t.Proposer)
		e.view(t.View)
	case *ViewAck:
		e.byte(byte(KindViewAck))
		e.site(t.By)
		e.uint(t.ViewID)
	case *ViewInstall:
		e.byte(byte(KindViewInstall))
		e.view(t.View)
	case *StateRequest:
		e.byte(byte(KindStateRequest))
		e.site(t.From)
		e.uint(t.HaveIndex)
	case *RetransmitReq:
		e.byte(byte(KindRetransmitReq))
		e.site(t.From)
		e.uint(t.FromIndex)
		e.uint(t.Applied)
	case *WriteReq:
		e.byte(byte(KindWriteReq))
		e.txn(t.Txn)
		e.int(int64(t.OpSeq))
		e.key(t.Key)
		e.value(t.Value)
	case *WriteAck:
		e.byte(byte(KindWriteAck))
		e.txn(t.Txn)
		e.int(int64(t.OpSeq))
		e.site(t.By)
		e.bool(t.OK)
	case *TxnNack:
		e.byte(byte(KindTxnNack))
		e.txn(t.Txn)
		e.site(t.By)
		e.key(t.Key)
	case *VoteReq:
		e.byte(byte(KindVoteReq))
		e.txn(t.Txn)
	case *Vote:
		e.byte(byte(KindVote))
		e.txn(t.Txn)
		e.site(t.By)
		e.bool(t.Yes)
	case *Decision:
		e.byte(byte(KindDecision))
		e.txn(t.Txn)
		e.bool(t.Commit)
		e.int(int64(t.NOps))
	case *CommitReq:
		e.byte(byte(KindCommitReq))
		e.txn(t.Txn)
		e.keyVers(t.Reads)
		e.keyVers(t.Writes)
		e.int(int64(t.NWrites))
		e.kvs(t.WriteKV)
	case *CausalNull:
		e.byte(byte(KindCausalNull))
		e.site(t.From)
	case *WriteBatch:
		e.byte(byte(KindWriteBatch))
		e.txn(t.Txn)
		e.kvs(t.Writes)
	case *Wound:
		e.byte(byte(KindWound))
		e.txn(t.Txn)
		e.site(t.By)
	case *QReadReq:
		e.byte(byte(KindQReadReq))
		e.txn(t.Txn)
		e.int(int64(t.Seq))
		e.key(t.Key)
	case *QReadReply:
		e.byte(byte(KindQReadReply))
		e.txn(t.Txn)
		e.int(int64(t.Seq))
		e.key(t.Key)
		e.site(t.From)
		e.uint(t.Ver)
		e.txn(t.Writer)
		e.value(t.Value)
		e.bool(t.Found)
	case *QLockReq:
		e.byte(byte(KindQLockReq))
		e.txn(t.Txn)
		e.keys(t.Keys)
	case *QLockReply:
		e.byte(byte(KindQLockReply))
		e.txn(t.Txn)
		e.site(t.From)
		e.keyVers(t.Vers)
	case *QCommit:
		e.byte(byte(KindQCommit))
		e.txn(t.Txn)
		e.kvs(t.Writes)
		e.keyVers(t.Vers)
	case *QRelease:
		e.byte(byte(KindQRelease))
		e.txn(t.Txn)
	case *SyncState:
		e.byte(byte(KindSyncState))
		e.site(t.From)
		e.stackSync(t.Stack)
		e.pending(t.Pending)
	case *SnapshotChunk:
		e.byte(byte(KindSnapshotChunk))
		e.site(t.From)
		e.uint(t.Applied)
		e.uint(t.Since)
		e.int(int64(t.Seq))
		e.bool(t.Last)
		e.snapshotEntries(t.Entries)
		e.stackSync(t.Stack)
		e.pending(t.Pending)
		e.shardRecovery(t.Shard)
	case *GroupMsg:
		e.byte(byte(KindGroupMsg))
		e.group(t.Group)
		e.message(t.Inner)
	case *ShardPrepare:
		e.byte(byte(KindShardPrepare))
		e.txn(t.Txn)
		e.group(t.Group)
		e.site(t.Coord)
		appendIDs(e, t.Groups)
		e.keyVers(t.Reads)
		e.kvs(t.WriteKV)
	case *ShardVote:
		e.byte(byte(KindShardVote))
		e.txn(t.Txn)
		e.group(t.Group)
		e.site(t.By)
		e.bool(t.Yes)
	case *ShardDecision:
		e.byte(byte(KindShardDecision))
		e.txn(t.Txn)
		e.group(t.Group)
		e.bool(t.Commit)
	case *ShardForward:
		e.byte(byte(KindShardForward))
		e.group(t.Group)
		e.message(t.Req)
	case *ShardOutcome:
		e.byte(byte(KindShardOutcome))
		e.txn(t.Txn)
		e.group(t.Group)
		e.bool(t.Commit)
	case *CoordQuery:
		e.byte(byte(KindCoordQuery))
		e.txn(t.Txn)
		e.group(t.Group)
		e.site(t.From)
	case *CoordStatus:
		e.byte(byte(KindCoordStatus))
		e.txn(t.Txn)
		e.group(t.Group)
		e.site(t.By)
		e.bool(t.Decided)
		e.bool(t.Outcome)
		e.bool(t.Prepared)
		e.bool(t.Vote)
	default:
		panic("message: AppendMessage: type has no wire encoding")
	}
}

// message decodes kind and body; kind 0 is a nil message. On failure it
// returns nil with d.err set.
func (d *decoder) message() Message {
	kind := Kind(d.byte())
	if kind == 0 || !d.enter() {
		return nil
	}
	m := d.body(kind)
	d.depth--
	if d.err != nil {
		return nil
	}
	return m
}

// enter counts one more level of message nesting, failing past maxNesting.
func (d *decoder) enter() bool {
	if d.depth++; d.depth > maxNesting {
		d.fail(errNesting)
		return false
	}
	return true
}

// bcast decodes a Bcast body. A payload of one of the kinds every commit
// broadcasts (see hotPair) shares the envelope's allocation; any other
// payload, a nil one included, decodes as a message of its own.
func (d *decoder) bcast() Message {
	hdr := Bcast{Class: Class(d.intField()), Origin: d.site(), Seq: d.uint(), VC: d.vc()}
	var b *Bcast
	var payload Message
	if len(d.b) > 0 {
		b, payload = hotPair(Kind(d.b[0]), hdr)
	}
	if payload == nil {
		b = new(Bcast)
		*b = hdr
		b.Payload = d.message()
	} else if d.byte(); d.enter() { // what message() does before the body
		b.Payload = d.hot(payload)
		d.depth--
	}
	b.Relayed, b.Trace = d.bool(), d.txn()
	return b
}

// hotPair allocates a Bcast with hdr's fields together with an empty
// payload of kind k, for the kinds every commit broadcasts; nil, nil for
// any other kind.
func hotPair(k Kind, hdr Bcast) (*Bcast, Message) {
	switch k {
	case KindWriteReq:
		return pairOf[WriteReq](hdr)
	case KindCommitReq:
		return pairOf[CommitReq](hdr)
	case KindVoteReq:
		return pairOf[VoteReq](hdr)
	case KindVote:
		return pairOf[Vote](hdr)
	case KindDecision:
		return pairOf[Decision](hdr)
	}
	return nil, nil
}

func pairOf[T any, P interface {
	*T
	Message
}](hdr Bcast) (*Bcast, Message) {
	x := &struct {
		Bcast
		payload T
	}{Bcast: hdr}
	return &x.Bcast, P(&x.payload)
}

// hot decodes the body of m, an empty message of a kind hotPair pairs, into
// m and returns it.
func (d *decoder) hot(m Message) Message {
	switch t := m.(type) {
	case *WriteReq:
		*t = WriteReq{Txn: d.txn(), OpSeq: d.intField(), Key: d.key(), Value: d.value()}
	case *CommitReq:
		*t = CommitReq{
			Txn: d.txn(), Reads: d.keyVers(), Writes: d.keyVers(),
			NWrites: d.intField(), WriteKV: d.kvs(),
		}
	case *VoteReq:
		*t = VoteReq{Txn: d.txn()}
	case *Vote:
		*t = Vote{Txn: d.txn(), By: d.site(), Yes: d.bool()}
	case *Decision:
		*t = Decision{Txn: d.txn(), Commit: d.bool(), NOps: d.intField()}
	}
	return m
}

func (d *decoder) body(kind Kind) Message {
	switch kind {
	case KindBcast:
		return d.bcast()
	case KindSeqOrder:
		return d.seqOrder()
	case KindIsisPropose:
		return &IsisPropose{Origin: d.site(), Seq: d.uint(), Proposer: d.site(), TS: d.uint()}
	case KindIsisFinal:
		return &IsisFinal{Origin: d.site(), Seq: d.uint(), TS: d.uint(), Tie: d.site()}
	case KindHeartbeat:
		return &Heartbeat{From: d.site(), ViewID: d.uint()}
	case KindViewPropose:
		return &ViewPropose{Proposer: d.site(), View: d.view()}
	case KindViewAck:
		return &ViewAck{By: d.site(), ViewID: d.uint()}
	case KindViewInstall:
		return &ViewInstall{View: d.view()}
	case KindStateRequest:
		return &StateRequest{From: d.site(), HaveIndex: d.uint()}
	case KindRetransmitReq:
		return &RetransmitReq{From: d.site(), FromIndex: d.uint(), Applied: d.uint()}
	case KindWriteReq:
		return d.hot(new(WriteReq))
	case KindWriteAck:
		return &WriteAck{Txn: d.txn(), OpSeq: d.intField(), By: d.site(), OK: d.bool()}
	case KindTxnNack:
		return &TxnNack{Txn: d.txn(), By: d.site(), Key: d.key()}
	case KindVoteReq:
		return d.hot(new(VoteReq))
	case KindVote:
		return d.hot(new(Vote))
	case KindDecision:
		return d.hot(new(Decision))
	case KindCommitReq:
		return d.hot(new(CommitReq))
	case KindCausalNull:
		return &CausalNull{From: d.site()}
	case KindWriteBatch:
		return &WriteBatch{Txn: d.txn(), Writes: d.kvs()}
	case KindWound:
		return &Wound{Txn: d.txn(), By: d.site()}
	case KindQReadReq:
		return &QReadReq{Txn: d.txn(), Seq: d.intField(), Key: d.key()}
	case KindQReadReply:
		return &QReadReply{
			Txn: d.txn(), Seq: d.intField(), Key: d.key(), From: d.site(),
			Ver: d.uint(), Writer: d.txn(), Value: d.value(), Found: d.bool(),
		}
	case KindQLockReq:
		return &QLockReq{Txn: d.txn(), Keys: d.keys()}
	case KindQLockReply:
		return &QLockReply{Txn: d.txn(), From: d.site(), Vers: d.keyVers()}
	case KindQCommit:
		return &QCommit{Txn: d.txn(), Writes: d.kvs(), Vers: d.keyVers()}
	case KindQRelease:
		return &QRelease{Txn: d.txn()}
	case KindSyncState:
		return &SyncState{From: d.site(), Stack: d.stackSync(), Pending: d.pending()}
	case KindSnapshotChunk:
		return &SnapshotChunk{
			From: d.site(), Applied: d.uint(), Since: d.uint(), Seq: d.intField(), Last: d.bool(),
			Entries: d.snapshotEntries(), Stack: d.stackSync(), Pending: d.pending(), Shard: d.shardRecovery(),
		}
	case KindGroupMsg:
		return &GroupMsg{Group: d.group(), Inner: d.message()}
	case KindShardPrepare:
		return &ShardPrepare{
			Txn: d.txn(), Group: d.group(), Coord: d.site(),
			Groups: decodeIDs[GroupID](d), Reads: d.keyVers(), WriteKV: d.kvs(),
		}
	case KindShardVote:
		return &ShardVote{Txn: d.txn(), Group: d.group(), By: d.site(), Yes: d.bool()}
	case KindShardDecision:
		return &ShardDecision{Txn: d.txn(), Group: d.group(), Commit: d.bool()}
	case KindShardForward:
		return &ShardForward{Group: d.group(), Req: d.message()}
	case KindShardOutcome:
		return &ShardOutcome{Txn: d.txn(), Group: d.group(), Commit: d.bool()}
	case KindCoordQuery:
		return &CoordQuery{Txn: d.txn(), Group: d.group(), From: d.site()}
	case KindCoordStatus:
		return &CoordStatus{
			Txn: d.txn(), Group: d.group(), By: d.site(),
			Decided: d.bool(), Outcome: d.bool(), Prepared: d.bool(), Vote: d.bool(),
		}
	}
	d.fail(fmt.Errorf("message: unknown kind %d", int(kind)))
	return nil
}
