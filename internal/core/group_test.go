package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// groupHarness is one replicaGroup of a freshly built, unstarted engine
// plus the engine's side of the transfer seam: carry attaches the engine's
// carriage to a transfer's last chunk, verify checks whether the engine
// adopted it.
type groupHarness struct {
	g      *replicaGroup
	donor  message.SiteID
	carry  func(last *message.SnapshotChunk)
	verify func(t *testing.T, adopted bool)
}

// atomicHarness: site 2 of a fully replicated cluster on the causal-write
// arm, the only one with pending writes to carry. The carriage is one
// in-flight disseminated write; once adopted, the ordered commit request
// that announced it must certify and install without any WriteReq arriving.
func atomicHarness(t *testing.T) *groupHarness {
	c := sim.NewCluster(3, netsim.Uniform{Min: time.Millisecond, Max: time.Millisecond}, 1)
	e := NewAtomic(c.Runtime(2), Config{PerOpWrites: true})
	txn := message.TxnID{Site: 1, Seq: 7}
	return &groupHarness{
		g:     e.replicaGroup,
		donor: 0,
		carry: func(last *message.SnapshotChunk) {
			last.Pending = map[message.TxnID][]message.KV{txn: {{Key: "carried", Value: message.Value("w")}}}
		},
		verify: func(t *testing.T, adopted bool) {
			t.Helper()
			if got := e.PendingRemote(); (got == 1) != adopted {
				t.Fatalf("pending remote = %d, adopted want %v", got, adopted)
			}
			if !adopted {
				return
			}
			next := e.stack.NextAtomicIndex()
			e.Receive(1, &message.Bcast{Class: message.ClassAtomic, Origin: 1, Seq: 1,
				Payload: &message.CommitReq{Txn: txn, NWrites: 1}})
			e.Receive(0, &message.SeqOrder{Sequencer: 0, Entries: []message.OrderEntry{{Origin: 1, Seq: 1, Index: next}}})
			if rec, ok := e.store.Get("carried"); !ok || rec.Index != next || e.PendingRemote() != 0 {
				t.Fatalf("carried write not certified at %d: %+v ok=%v pending=%d", next, rec, ok, e.PendingRemote())
			}
		},
	}
}

// shardedHarness: group 0 at site 0 of a 2-group, rf-2 ring. The carriage
// is one certified-undecided prepare; once adopted its footprint must be
// blocked again.
func shardedHarness(t *testing.T) *groupHarness {
	c := sim.NewCluster(4, netsim.Uniform{Min: time.Millisecond, Max: time.Millisecond}, 1)
	e, err := NewSharded(c.Runtime(0), shardedCfg(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	g := e.groups[0]
	txn := message.TxnID{Site: 3, Seq: 7}
	held := []message.KV{{Key: "held", Value: message.Value("w")}}
	return &groupHarness{
		g:     g.replicaGroup,
		donor: 1,
		carry: func(last *message.SnapshotChunk) {
			last.Shard = &message.ShardRecovery{Prepared: []message.PreparedShard{{
				Txn: txn, Index: 1, Vote: true, Coord: 3, Groups: []message.GroupID{0, 1},
				Keys: []message.Key{"held"}, Writes: held,
			}}}
		},
		verify: func(t *testing.T, adopted bool) {
			t.Helper()
			if (g.prepared[txn] != nil) != adopted || g.certify(nil, nil, held) == adopted {
				t.Fatalf("prepared=%v blocked=%v, adopted want %v", g.prepared[txn] != nil, g.blocked["held"] != nil, adopted)
			}
		},
	}
}

// TestGroupChunkReassembly drives replicaGroup.onSnapshotChunk/installState
// directly: chunk order and duplication, transfer generations, the
// serve/accept gate, and delta versus full installs, each under both
// engines' carriages.
func TestGroupChunkReassembly(t *testing.T) {
	type gen struct{ applied, since uint64 }
	// transfer builds one generation's chunk set, one key per chunk, each
	// key's newest version at the given index.
	type keyAt struct {
		key message.Key
		idx uint64
	}
	transfer := func(h *groupHarness, g gen, kvs ...keyAt) []*message.SnapshotChunk {
		var out []*message.SnapshotChunk
		for i, e := range kvs {
			out = append(out, &message.SnapshotChunk{
				From: h.donor, Applied: g.applied, Since: g.since, Seq: i,
				Entries: []message.SnapshotEntry{{Key: e.key, Versions: []message.VersionRec{{Index: e.idx, Value: message.Value("v")}}}},
			})
		}
		last := out[len(out)-1]
		last.Last = true
		h.carry(last)
		return out
	}
	abc := []keyAt{{"a", 3}, {"b", 7}, {"c", 10}}
	pick := func(cs []*message.SnapshotChunk, order ...int) []*message.SnapshotChunk {
		var out []*message.SnapshotChunk
		for _, i := range order {
			out = append(out, cs[i])
		}
		return out
	}
	// seed installs a first transfer at index 10 (keys a@3, b@7, no
	// carriage) so a case starts from a serving, caught-up member.
	seed := func(h *groupHarness) {
		cs := transfer(h, gen{10, 0}, keyAt{"a", 3}, keyAt{"b", 7})
		cs[1].Pending, cs[1].Shard = nil, nil
		for _, c := range cs {
			h.g.onSnapshotChunk(c)
		}
	}

	cases := []struct {
		name    string
		pre     func(h *groupHarness)
		feed    func(h *groupHarness) []*message.SnapshotChunk
		index   uint64                 // certIndex afterwards
		commits map[message.Key]uint64 // lastCommit afterwards
		adopted bool                   // the fed carriage reached the engine
	}{
		{name: "in order",
			feed:  func(h *groupHarness) []*message.SnapshotChunk { return transfer(h, gen{10, 0}, abc...) },
			index: 10, commits: map[message.Key]uint64{"a": 3, "b": 7, "c": 10}, adopted: true},
		{name: "reversed",
			feed:  func(h *groupHarness) []*message.SnapshotChunk { return pick(transfer(h, gen{10, 0}, abc...), 2, 1, 0) },
			index: 10, commits: map[message.Key]uint64{"a": 3, "b": 7, "c": 10}, adopted: true},
		{name: "duplicated",
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				return pick(transfer(h, gen{10, 0}, abc...), 2, 0, 2, 0, 1, 1)
			},
			index: 10, commits: map[message.Key]uint64{"a": 3, "b": 7, "c": 10}, adopted: true},
		{name: "incomplete",
			feed:  func(h *groupHarness) []*message.SnapshotChunk { return pick(transfer(h, gen{10, 0}, abc...), 0, 2) },
			index: 0, commits: map[message.Key]uint64{}},
		{name: "lone last chunk",
			feed:  func(h *groupHarness) []*message.SnapshotChunk { return transfer(h, gen{4, 0}, keyAt{"a", 3}) },
			index: 4, commits: map[message.Key]uint64{"a": 3}, adopted: true},
		{name: "older-generation straggler ignored",
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				cur := transfer(h, gen{10, 0}, abc...)
				old := transfer(h, gen{8, 0}, keyAt{"old", 8}) // complete on its own
				return append(append(pick(cur, 0), old...), pick(cur, 1, 2)...)
			},
			index: 10, commits: map[message.Key]uint64{"a": 3, "b": 7, "c": 10}, adopted: true},
		{name: "newer generation discards a partial set",
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				old := transfer(h, gen{10, 0}, abc...)
				cur := transfer(h, gen{12, 0}, keyAt{"x", 11}, keyAt{"y", 12})
				return append(append(pick(old, 0, 1), cur...), pick(old, 2)...)
			},
			index: 12, commits: map[message.Key]uint64{"x": 11, "y": 12}, adopted: true},
		{name: "at or below certIndex ignored when serving",
			pre: seed,
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				return append(transfer(h, gen{10, 0}, keyAt{"z", 10}), transfer(h, gen{5, 0}, keyAt{"z", 5})...)
			},
			index: 10, commits: map[message.Key]uint64{"a": 3, "b": 7}},
		{name: "at or below certIndex accepted when stale",
			pre: func(h *groupHarness) { seed(h); h.g.stale = true },
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				return transfer(h, gen{5, 0}, keyAt{"z", 5})
			},
			index: 5, commits: map[message.Key]uint64{"z": 5}, adopted: true},
		{name: "delta merges into lastCommit",
			pre: seed,
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				return transfer(h, gen{15, 10}, keyAt{"b", 15}, keyAt{"c", 14})
			},
			index: 15, commits: map[message.Key]uint64{"a": 3, "b": 15, "c": 14}, adopted: true},
		{name: "full restore rebuilds lastCommit",
			pre: seed,
			feed: func(h *groupHarness) []*message.SnapshotChunk {
				return transfer(h, gen{15, 0}, keyAt{"b", 15}, keyAt{"c", 14})
			},
			index: 15, commits: map[message.Key]uint64{"b": 15, "c": 14}, adopted: true},
	}
	for _, mk := range []struct {
		name string
		new  func(*testing.T) *groupHarness
	}{{"atomic", atomicHarness}, {"sharded", shardedHarness}} {
		for _, tc := range cases {
			t.Run(mk.name+"/"+tc.name, func(t *testing.T) {
				h := mk.new(t)
				if tc.pre != nil {
					tc.pre(h)
				}
				for _, c := range tc.feed(h) {
					h.g.onSnapshotChunk(c)
				}
				g := h.g
				// The ordered stream only ever moves forward: a stale member
				// installing an older transfer keeps its stack position.
				if g.certIndex != tc.index || g.store.Applied() != tc.index || g.stack.NextAtomicIndex() <= tc.index {
					t.Fatalf("certIndex %d, store applied %d, next ordered %d; want index %d",
						g.certIndex, g.store.Applied(), g.stack.NextAtomicIndex(), tc.index)
				}
				if !reflect.DeepEqual(g.lastCommit, tc.commits) {
					t.Fatalf("lastCommit %v, want %v", g.lastCommit, tc.commits)
				}
				for k, idx := range tc.commits {
					if rec, ok := g.store.Get(k); !ok || rec.Index != idx {
						t.Fatalf("store[%q] = %+v (present %v), want index %d", k, rec, ok, idx)
					}
				}
				if g.stale {
					t.Fatal("still stale")
				}
				h.verify(t, tc.adopted)
			})
		}
	}
}

// TestGroupSyncStateRedrivesQueue: on the repair path the donor's in-flight
// writes arrive on a SyncState; protocol A's causal-write arm merges them
// before the stack import and re-drives its stalled certification queue
// after it.
func TestGroupSyncStateRedrivesQueue(t *testing.T) {
	c := sim.NewCluster(3, netsim.Uniform{Min: time.Millisecond, Max: time.Millisecond}, 1)
	e := NewAtomic(c.Runtime(2), Config{PerOpWrites: true})
	txn := message.TxnID{Site: 1, Seq: 1}
	e.Receive(1, &message.Bcast{Class: message.ClassAtomic, Origin: 1, Seq: 1,
		Payload: &message.CommitReq{Txn: txn, NWrites: 1}})
	e.Receive(0, &message.SeqOrder{Sequencer: 0, Entries: []message.OrderEntry{{Origin: 1, Seq: 1, Index: 1}}})
	if e.certIndex != 0 || len(e.queue) != 1 {
		t.Fatalf("request not queued behind its writes: certIndex %d, queue %d", e.certIndex, len(e.queue))
	}
	e.Receive(0, &message.SyncState{From: 0, Pending: map[message.TxnID][]message.KV{
		txn: {{Key: "k", Value: message.Value("w")}},
	}})
	if rec, ok := e.store.Get("k"); !ok || rec.Index != 1 || e.PendingRemote() != 0 {
		t.Fatalf("queue not re-driven: %+v ok=%v pending=%d", rec, ok, e.PendingRemote())
	}
}
