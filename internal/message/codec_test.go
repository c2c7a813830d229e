package message

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// codecSamples is the round-trip table: at least one message of every Kind
// (TestCodecSamplesCoverEveryKind), every field non-zero somewhere, plus
// the shapes that are easy to get wrong: nesting three deep, nil nested
// messages and pointers, and maps. Slices, maps and values in it are
// either nil or non-empty, so a sample must come back reflect.DeepEqual.
func codecSamples() []Message {
	id := TxnID{Site: 1, Seq: 2}
	old := TxnID{Site: 2, Seq: 1 << 40}
	write := &WriteReq{Txn: id, OpSeq: 3, Key: "k1", Value: Value("v1")}
	commit := &CommitReq{
		Txn: id, Reads: []KeyVer{{Key: "r", Ver: 7}}, Writes: []KeyVer{{Key: "w", Ver: 8}, {Key: "w2"}},
		NWrites: 2, WriteKV: []KV{{Key: "w", Value: Value("x")}, {Key: "w2"}},
	}
	entries := []SnapshotEntry{
		{Key: "a", Versions: []VersionRec{{Index: 1, Writer: id, Value: Value("a1")}, {Index: 2, Writer: old}}},
		{Key: "b", Replace: true},
	}
	stack := &StackSync{
		CausalVC: vclock.VC{4, 0, 9},
		HighSeq: map[Class]map[SiteID]uint64{
			ClassAtomic:   {1: 11, 0: 10},
			ClassReliable: {2: 1},
			ClassCausal:   nil,
		},
		Held: []*Bcast{
			{Class: ClassCausal, Origin: 2, Seq: 6, VC: vclock.VC{1, 2, 3}, Payload: write},
			{Class: ClassAtomic, Origin: 0, Seq: 1, Payload: commit, Trace: id},
		},
	}
	pending := map[TxnID][]KV{
		{Site: 2, Seq: 1}: {{Key: "p", Value: Value("q")}},
		{Site: 0, Seq: 9}: {{Key: "p2"}},
		{Site: 0, Seq: 3}: nil,
	}
	shard := &ShardRecovery{
		Prepared: []PreparedShard{{
			Txn: id, Index: 5, Vote: true, Coord: 3, Groups: []GroupID{0, 1},
			Keys: []Key{"k", "k2"}, Writes: []KV{{Key: "k", Value: Value("v")}},
		}, {Txn: old}},
		Decided: []DecidedShard{{Txn: id, Commit: true}, {Txn: old}},
		Fenced:  []TxnID{old, id},
	}
	return []Message{
		&Bcast{Class: ClassCausal, Origin: 1, Seq: 2, VC: vclock.VC{1, 2, 0}, Payload: write, Relayed: true, Trace: id},
		&Bcast{Class: ClassReliable, Origin: 2, Seq: 1 << 33, Payload: &Vote{Txn: id, By: 2, Yes: true}, Trace: id},
		&Bcast{Class: ClassAtomic, Origin: 0, Seq: 1}, // nil payload
		&SeqOrder{Sequencer: 1, Entries: []OrderEntry{{Origin: 1, Seq: 2, Index: 3}, {Origin: 2, Seq: 1, Index: 4}}},
		&SeqOrder{},
		&IsisPropose{Origin: 1, Seq: 2, Proposer: 3, TS: 4},
		&IsisFinal{Origin: 1, Seq: 2, TS: 4, Tie: 3},
		&Heartbeat{From: 1, ViewID: 2},
		&ViewPropose{Proposer: 1, View: View{ID: 2, Members: []SiteID{0, 1, 4}}},
		&ViewAck{By: 1, ViewID: 2},
		&ViewInstall{View: View{ID: 2, Members: []SiteID{0, 1}}},
		&StateRequest{From: 1, HaveIndex: 77},
		&RetransmitReq{From: 1, FromIndex: 2, Applied: 1},
		write,
		&WriteReq{Txn: id, OpSeq: -1, Key: "", Value: nil},
		&WriteAck{Txn: id, OpSeq: 1, By: 2, OK: true},
		&TxnNack{Txn: id, By: 2, Key: "k"},
		&VoteReq{Txn: id},
		&Vote{Txn: id, By: 1, Yes: true},
		&Decision{Txn: id, Commit: true, NOps: 3},
		commit,
		&CausalNull{From: 1},
		&WriteBatch{Txn: id, Writes: []KV{{Key: "k", Value: Value("v")}, {Key: "k2", Value: Value("v2")}}},
		&Wound{Txn: id, By: 2},
		&QReadReq{Txn: id, Seq: 4, Key: "k"},
		&QReadReply{Txn: id, Seq: 4, Key: "k", From: 2, Ver: 9, Writer: old, Value: Value("v"), Found: true},
		&QLockReq{Txn: id, Keys: []Key{"k", "k2"}},
		&QLockReply{Txn: id, From: 2, Vers: []KeyVer{{Key: "k", Ver: 1}}},
		&QCommit{Txn: id, Writes: []KV{{Key: "k", Value: Value("v")}}, Vers: []KeyVer{{Key: "k", Ver: 2}}},
		&QRelease{Txn: id},
		&SyncState{From: 2, Stack: stack, Pending: pending},
		&SyncState{From: 2, Stack: &StackSync{}}, // present but empty
		&SeqOrder{Sequencer: 1, Entries: []OrderEntry{{Origin: 1, Seq: 2, Index: 3}, {Origin: 0, Seq: 7, Index: 4}, {Origin: 1, Seq: 3, Index: 5}}}, // one sealed batch
		&SnapshotChunk{From: 1, Applied: 9, Since: 4, Seq: 2, Last: true, Entries: entries, Stack: stack, Pending: pending, Shard: shard},
		&SnapshotChunk{From: 1, Applied: 9, Seq: 1, Entries: entries}, // nil Stack, Pending, Shard
		&GroupMsg{Group: 1, Inner: &Bcast{Class: ClassAtomic, Origin: 1, Seq: 5, Payload: commit, Trace: id}},
		&GroupMsg{Group: 1, Inner: &SnapshotChunk{From: 1, Last: true, Stack: stack, Shard: &ShardRecovery{}}},
		&GroupMsg{Group: 2}, // nil inner
		&ShardPrepare{Txn: id, Group: 1, Coord: 2, Groups: []GroupID{0, 1}, Reads: []KeyVer{{Key: "r", Ver: 3}}, WriteKV: []KV{{Key: "w", Value: Value("v")}}},
		&ShardVote{Txn: id, Group: 1, By: 2, Yes: true},
		&ShardDecision{Txn: id, Group: 1, Commit: true},
		&ShardForward{Group: 1, Req: commit},
		&ShardForward{Group: 1}, // nil request
		&ShardOutcome{Txn: id, Group: 1, Commit: true},
		&CoordQuery{Txn: id, Group: 1, From: 3},
		&CoordStatus{Txn: id, Group: 1, By: 2, Decided: true, Outcome: true, Prepared: true, Vote: true},
		&CoordStatus{Txn: id, Group: 1, By: 2, Prepared: true},
		&Heartbeat{From: -1, ViewID: 1<<64 - 1}, // integer extremes
		// Appended, so that the fuzz seeds built from the samples above keep
		// their numbers: shapes of the decoder's shared-allocation path.
		&Bcast{Class: ClassReliable, Origin: 0, Seq: 3, Payload: &VoteReq{Txn: id}},
		&Bcast{Class: ClassCausal, Origin: 2, Seq: 4, VC: vclock.VC{0, 0, 4}, Payload: &Decision{Txn: id, Commit: true, NOps: 2}},
		&SeqOrder{Sequencer: 0, Entries: []OrderEntry{{Origin: 2, Seq: 9, Index: 12}}}, // one entry, as the fixed sequencer sends
	}
}

func TestCodecSamplesCoverEveryKind(t *testing.T) {
	have := make(map[Kind]bool)
	for _, m := range codecSamples() {
		have[m.Kind()] = true
	}
	for k, name := range kindNames {
		if !have[k] {
			t.Errorf("no codec sample for kind %s: add one to codecSamples", name)
		}
		if k < 1 || k > 255 {
			t.Errorf("kind %s = %d does not fit the one-byte wire tag", name, int(k))
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range codecSamples() {
		enc := AppendMessage(nil, m)
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v: round trip changed the message\n got %#v\nwant %#v", m.Kind(), got, m)
		}
		// Deterministic bytes (maps are emitted in key order), also when
		// appending behind other data.
		for i := 0; i < 8; i++ {
			again := AppendMessage([]byte("prefix"), m)
			if !bytes.Equal(again, append([]byte("prefix"), enc...)) {
				t.Fatalf("%v: encoding differs between runs:\n%x\n%x", m.Kind(), again[6:], enc)
			}
		}
		// The encoding is self-delimiting: no strict prefix decodes.
		for n := 0; n < len(enc); n++ {
			if _, err := DecodeMessage(enc[:n]); err == nil {
				t.Fatalf("%v: %d-byte prefix of %d bytes decoded", m.Kind(), n, len(enc))
			}
		}
	}
}

// TestCodecEmptyDecodesNil pins the convention inherited from gob, on which
// the engines were built: zero-length slices, maps and values come back
// nil, whatever the sender held.
func TestCodecEmptyDecodesNil(t *testing.T) {
	for _, tc := range []struct{ in, want Message }{
		{&WriteReq{Key: "k", Value: Value{}}, &WriteReq{Key: "k"}},
		{&Bcast{VC: vclock.VC{}}, &Bcast{}},
		{&SeqOrder{Entries: []OrderEntry{}}, &SeqOrder{}},
		{&ViewInstall{View: View{Members: []SiteID{}}}, &ViewInstall{}},
		{
			&CommitReq{Reads: []KeyVer{}, Writes: []KeyVer{}, WriteKV: []KV{{Key: "k", Value: Value{}}}},
			&CommitReq{WriteKV: []KV{{Key: "k"}}},
		},
		{&QLockReq{Keys: []Key{}}, &QLockReq{}},
		{&ShardPrepare{Groups: []GroupID{}}, &ShardPrepare{}},
		{
			&SnapshotChunk{Entries: []SnapshotEntry{{Key: "k", Versions: []VersionRec{}}}, Pending: map[TxnID][]KV{}},
			&SnapshotChunk{Entries: []SnapshotEntry{{Key: "k"}}},
		},
		{
			&SyncState{
				Stack: &StackSync{
					CausalVC: vclock.VC{},
					HighSeq:  map[Class]map[SiteID]uint64{ClassReliable: {}}, Held: []*Bcast{},
				},
				Pending: map[TxnID][]KV{{Site: 1, Seq: 1}: {}},
			},
			&SyncState{
				Stack:   &StackSync{HighSeq: map[Class]map[SiteID]uint64{ClassReliable: nil}},
				Pending: map[TxnID][]KV{{Site: 1, Seq: 1}: nil},
			},
		},
		{
			&SnapshotChunk{Shard: &ShardRecovery{Prepared: []PreparedShard{}, Decided: []DecidedShard{}, Fenced: []TxnID{}}},
			&SnapshotChunk{Shard: &ShardRecovery{}},
		},
	} {
		got, err := DecodeMessage(AppendMessage(nil, tc.in))
		if err != nil {
			t.Fatalf("%v: %v", tc.in.Kind(), err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v: got %#v, want %#v", tc.in.Kind(), got, tc.want)
		}
	}
}

// retiredFrames are frames of the baseline's retired kinds in their last
// layouts: its write, write acknowledgement, prepare, prepare vote and
// decision. The decoder refuses each as an unknown kind.
var retiredFrames = [][]byte{
	{21, 0, 1, 2, 1, 'k', 0},
	{22, 0, 1, 2, 0, 1},
	{24, 0, 1},
	{25, 0, 1, 0, 1},
	{26, 0, 1, 1},
}

// TestCodecRejectsMalformed feeds the decoder the inputs a hostile or
// broken peer could frame: every one must fail, without panicking and
// without allocating what a count or length claims.
func TestCodecRejectsMalformed(t *testing.T) {
	deep := []byte{}
	for i := 0; i <= maxNesting; i++ {
		deep = append(deep, byte(KindGroupMsg), 0) // group 0, then the inner message
	}
	deep = append(deep, 0)
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^63-1
	for name, tc := range map[string]struct {
		in   []byte
		want error // nil: any error
	}{
		"empty":             {nil, errTruncated},
		"nil message":       {[]byte{0}, errNil},
		"unknown kind":      {[]byte{200, 1, 2}, nil},
		"reserved kind 10":  {[]byte{10, 1, 2}, nil},             // retired monolithic transfer, see Kind
		"reserved kind 34":  {[]byte{34, 2, 8, 1, 2, 2, 3}, nil}, // a retired batch announcement, see Kind
		"reserved kind 21":  {retiredFrames[0], nil},
		"reserved kind 22":  {retiredFrames[1], nil},
		"reserved kind 24":  {retiredFrames[2], nil},
		"reserved kind 25":  {retiredFrames[3], nil},
		"reserved kind 26":  {retiredFrames[4], nil},
		"trailing bytes":    {append(AppendMessage(nil, &VoteReq{}), 0), errTrailing},
		"bool of 2":         {[]byte{byte(KindDecision), 0, 1, 2, 0}, errBool},
		"site beyond int32": {append([]byte{byte(KindCausalNull)}, huge...), errRange},
		"varint overflow":   {[]byte{byte(KindCausalNull), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, errVarint},
		"key length":        {append(append([]byte{byte(KindQReadReq), 0, 0, 0}, huge...), 'k'), errCount},
		"value length":      {append(append([]byte{byte(KindWriteReq), 0, 0, 0, 0}, huge...), 'v'), errCount},
		"slice count":       {append(append([]byte{byte(KindSeqOrder), 0}, huge...), 1, 1, 1), errCount},
		"vc count":          {append(append([]byte{byte(KindBcast), 2, 0, 1}, huge...), 1), errCount},
		"map count":         {append(append([]byte{byte(KindSyncState), 0, 0}, huge...), 1, 1, 1), errCount},
		"nested too deep":   {deep, errNesting},
		"held not a bcast":  {[]byte{byte(KindSyncState), 0, 1, 0, 0, 0, 1, byte(KindVoteReq), 0, 0, 0}, errHeld},
	} {
		m, err := DecodeMessage(tc.in)
		if err == nil {
			t.Errorf("%s: decoded %#v", name, m)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %q, want %q", name, err, tc.want)
		}
		if m != nil {
			t.Errorf("%s: returned a message alongside the error", name)
		}
	}
	if KindStateRequest != 9 || KindRetransmitReq != 11 {
		t.Errorf("kinds around the reserved slot moved: StateRequest=%d RetransmitReq=%d, want 9 and 11", KindStateRequest, KindRetransmitReq)
	}
	if KindWriteBatch != 20 || KindWound != 23 || KindQReadReq != 27 {
		t.Errorf("kinds around the reserved slots moved: WriteBatch=%d Wound=%d QReadReq=%d, want 20, 23 and 27", KindWriteBatch, KindWound, KindQReadReq)
	}
	if KindSyncState != 33 || KindSnapshotChunk != 35 {
		t.Errorf("kinds around the reserved slot moved: SyncState=%d SnapshotChunk=%d, want 33 and 35", KindSyncState, KindSnapshotChunk)
	}
	// Exactly maxNesting levels is accepted.
	if _, err := DecodeMessage(deep[2:]); err != nil {
		t.Errorf("%d nested messages refused: %v", maxNesting, err)
	}

	// The payloads every commit broadcasts decode into their envelope's
	// allocation on a path of their own, which must accept and refuse
	// exactly what the generic path does; WriteAck stands in for every
	// other payload kind.
	id := TxnID{Site: 1, Seq: 2}
	generic := &WriteAck{Txn: id, OpSeq: 1}
	nested := func(payload Message, depth int) Message {
		var m Message = &Bcast{Class: ClassAtomic, Origin: 1, Seq: 3, Payload: payload}
		for d := 2; d < depth; d++ {
			m = &GroupMsg{Group: 1, Inner: m}
		}
		return m
	}
	decodeNested := func(payload Message, depth int) (Message, error) {
		return DecodeMessage(AppendMessage(nil, nested(payload, depth)))
	}
	for _, hot := range []Message{&WriteReq{Txn: id, OpSeq: 1, Key: "k", Value: Value("v")}, &CommitReq{Txn: id, NWrites: 1}} {
		name := "Bcast{" + hot.Kind().String() + "}"
		if m, err := decodeNested(hot, maxNesting); err != nil || !reflect.DeepEqual(m, nested(hot, maxNesting)) {
			t.Errorf("%s nested %d deep: %#v, %v", name, maxNesting, m, err)
		}
		m, err := decodeNested(hot, maxNesting+1)
		if _, want := decodeNested(generic, maxNesting+1); m != nil || err != want || want != errNesting {
			t.Errorf("%s nested %d deep: %v, %v; generic payload: %v", name, maxNesting+1, m, err, want)
		}
		// Kind, class, origin, sequence and an empty clock take five bytes;
		// the payload's kind byte follows.
		cut := AppendMessage(nil, &Bcast{Payload: hot})[:6]
		cutGeneric := AppendMessage(nil, &Bcast{Payload: generic})[:6]
		if cut[5] != byte(hot.Kind()) || cutGeneric[5] != byte(KindWriteAck) {
			t.Fatalf("%s: the frame layout moved: %x", name, cut)
		}
		m, err = DecodeMessage(cut)
		if _, want := DecodeMessage(cutGeneric); m != nil || err != want || want != errTruncated {
			t.Errorf("%s cut after the payload's kind: %v, %v; generic payload: %v", name, m, err, want)
		}
	}
}

// FuzzDecodeMessage: arbitrary bytes never panic the decoder, and whatever
// it accepts is a fixed point of encode→decode.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range codecSamples() {
		enc := AppendMessage(nil, m)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	for _, enc := range retiredFrames {
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{byte(KindSyncState), 0, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			if m != nil {
				t.Fatalf("message returned alongside error %v", err)
			}
			return
		}
		enc := AppendMessage(nil, m)
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode of %v: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("decode(encode(decode(x))) != decode(x)\n got %#v\nwant %#v", again, m)
		}
		if !bytes.Equal(AppendMessage(nil, again), enc) {
			t.Fatalf("%v: re-encoding is not stable", m.Kind())
		}
	})
}

// hotSamples are the messages protocols R and A put on the wire per commit.
func hotSamples() map[string]Message {
	id := TxnID{Site: 1, Seq: 123456}
	commit := &CommitReq{
		Txn: id, Reads: []KeyVer{{Key: "key-000017", Ver: 41}, {Key: "key-000952", Ver: 7}},
		Writes: []KeyVer{{Key: "key-000017", Ver: 41}}, NWrites: 1,
	}
	return map[string]Message{
		"SeqOrder": &SeqOrder{Sequencer: 0, Entries: []OrderEntry{{Origin: 1, Seq: 4711, Index: 123456}}},
		"WriteReq": &Bcast{
			Class: ClassCausal, Origin: 1, Seq: 4711, VC: vclock.VC{4711, 4690, 4702}, Trace: id,
			Payload: &WriteReq{Txn: id, OpSeq: 1, Key: "key-000017", Value: make(Value, 128)},
		},
		"Vote":      &Bcast{Class: ClassReliable, Origin: 2, Seq: 4711, Trace: id, Payload: &Vote{Txn: id, By: 2, Yes: true}},
		"CommitReq": &Bcast{Class: ClassAtomic, Origin: 1, Seq: 4711, Trace: id, Payload: commit},
		"GroupMsg":  &GroupMsg{Group: 1, Inner: &Bcast{Class: ClassAtomic, Origin: 1, Seq: 4711, Trace: id, Payload: commit}},
	}
}

// TestCodecAllocs pins the reprolint:noalloc marker on AppendMessage at run
// time, and the decoder's budget: one allocation for a Bcast and its
// payload together (for a SeqOrder and its one entry), then one per vector
// clock, slice, key string and value — nothing for the decoder itself.
func TestCodecAllocs(t *testing.T) {
	for name, maxDecode := range map[string]float64{
		"WriteReq":  4, // envelope+payload, clock, key, value
		"Vote":      1,
		"CommitReq": 6, // envelope+payload, reads, two read keys, writes, one write key
		"SeqOrder":  1,
	} {
		m := hotSamples()[name]
		buf := AppendMessage(nil, m)
		if n := testing.AllocsPerRun(200, func() { buf = AppendMessage(buf[:0], m) }); n != 0 {
			t.Errorf("encode %s into a warm buffer = %v allocs/op, want 0", name, n)
		}
		var sink Message
		if n := testing.AllocsPerRun(200, func() { sink, _ = DecodeMessage(buf) }); n > maxDecode {
			t.Errorf("decode %s = %v allocs/op, want at most %v", name, n, maxDecode)
		}
		if !reflect.DeepEqual(sink, m) {
			t.Errorf("%s did not survive the round trip", name)
		}
	}
}

var benchSink Message

func BenchmarkCodec(b *testing.B) {
	samples := hotSamples()
	for _, name := range []string{"WriteReq", "Vote", "CommitReq", "GroupMsg", "SeqOrder"} {
		m := samples[name]
		enc := AppendMessage(nil, m)
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				buf = AppendMessage(buf[:0], m)
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				var err error
				if benchSink, err = DecodeMessage(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCodecUnknownTypePanics: a Message type without an encoding is a
// programming error, reported where it is made rather than as a corrupt
// stream at the peer.
func TestCodecUnknownTypePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "no wire encoding") {
			t.Fatalf("recovered %v", r)
		}
	}()
	AppendMessage(nil, unknownMessage{})
}

type unknownMessage struct{}

func (unknownMessage) Kind() Kind { return 99 }
