package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/commitpipe"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

// shardedCfg configures a partially replicated cluster.
func shardedCfg(groups, rf int) Config {
	return Config{Shard: &shard.Config{Groups: groups, RF: rf}}
}

// keyIn scans "<tag>0", "<tag>1", ... for the first key the ring maps to
// group g.
func keyIn(t *testing.T, ring *shard.Ring, g message.GroupID, tag string) message.Key {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := message.Key(fmt.Sprintf("%s%d", tag, i))
		if ring.GroupOf(k) == g {
			return k
		}
	}
	t.Fatalf("no key in group %v with tag %q", g, tag)
	return ""
}

// sharded casts one engine.
func (tc *testCluster) sharded(i int) *ShardedEngine {
	return tc.engines[i].(*ShardedEngine)
}

// checkGroupConvergence verifies every member of every group holds the
// identical latest value for each key of the group's store (sharding's
// replacement for checkInvariants' whole-cluster store sweep), plus 1SR
// and drained cross-shard state.
func (tc *testCluster) checkGroupConvergence() {
	tc.t.Helper()
	if err := tc.rec.Check(); err != nil {
		tc.t.Fatalf("serializability: %v", err)
	}
	ring := tc.sharded(0).Ring()
	for g := 0; g < ring.Groups(); g++ {
		gid := message.GroupID(g)
		members := ring.Members(gid)
		ref := tc.sharded(int(members[0])).GroupStore(gid)
		for _, ent := range ref.Snapshot() {
			want, _ := ref.Get(ent.Key)
			for _, m := range members[1:] {
				st := tc.sharded(int(m)).GroupStore(gid)
				got, _ := st.Get(ent.Key)
				if string(got.Value) != string(want.Value) || got.Writer != want.Writer {
					tc.t.Fatalf("group %v divergence on %q: site %v has %v=%q, site %v has %v=%q",
						gid, ent.Key, members[0], want.Writer, want.Value, m, got.Writer, got.Value)
				}
			}
		}
	}
	for i := range tc.engines {
		if n := tc.sharded(i).PendingCoord(); n != 0 {
			tc.t.Fatalf("site %d leaked %d cross-shard records", i, n)
		}
	}
}

// TestNewShardedRejectsConfig: configurations the sharded engine cannot
// honour fail at construction instead of being ignored.
func TestNewShardedRejectsConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no shard config", Config{}},
		{"more groups than sites", shardedCfg(5, 1)},
	} {
		c := sim.NewCluster(4, netsim.Fixed{Delay: time.Millisecond}, 1)
		if e, err := NewSharded(c.Runtime(0), tc.cfg); err == nil {
			t.Errorf("%s: NewSharded built %T, want an error", tc.name, e)
		}
	}
}

// TestShardedSingleGroupCommit: each group commits independently; writes
// replicate to the group's members only.
func TestShardedSingleGroupCommit(t *testing.T) {
	tc := newTestCluster(t, 4, "sharded", shardedCfg(2, 2), 7)
	ring := tc.sharded(0).Ring()
	// Placement: group 0 = sites {0,1}, group 1 = sites {2,3}.
	a := keyIn(t, ring, 0, "a")
	b := keyIn(t, ring, 1, "b")
	ra := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{{Key: a, Value: message.Value("va")}})
	rb := tc.runTxn(time.Millisecond, 2, false, nil, []message.KV{{Key: b, Value: message.Value("vb")}})
	tc.run(2 * time.Second)
	if !ra.done || ra.outcome != Committed {
		t.Fatalf("group-0 txn: %+v", ra)
	}
	if !rb.done || rb.outcome != Committed {
		t.Fatalf("group-1 txn: %+v", rb)
	}
	for _, site := range []int{0, 1} {
		if v, ok := tc.sharded(site).GroupStore(0).Get(a); !ok || string(v.Value) != "va" {
			t.Fatalf("site %d missing group-0 write: %q ok=%v", site, v.Value, ok)
		}
	}
	for _, site := range []int{2, 3} {
		if v, ok := tc.sharded(site).GroupStore(1).Get(b); !ok || string(v.Value) != "vb" {
			t.Fatalf("site %d missing group-1 write: %q ok=%v", site, v.Value, ok)
		}
		// The other group's key never reached this site.
		if tc.sharded(site).GroupStore(0) != nil {
			t.Fatalf("site %d replicates group 0 unexpectedly", site)
		}
	}
	tc.checkGroupConvergence()
}

// TestShardedForwardedCommit: a site outside the key's group commits
// through the group leader and learns the outcome via ShardOutcome; reads
// of unreplicated keys are refused.
func TestShardedForwardedCommit(t *testing.T) {
	tc := newTestCluster(t, 4, "sharded", shardedCfg(2, 2), 8)
	ring := tc.sharded(0).Ring()
	a := keyIn(t, ring, 0, "a")
	// Site 3 replicates only group 1.
	res := tc.runTxn(time.Millisecond, 3, false, nil, []message.KV{{Key: a, Value: message.Value("routed")}})
	var readErr error
	tc.c.Schedule(500*time.Millisecond, func() {
		e := tc.sharded(3)
		tx := e.Begin(true)
		e.Read(tx, a, func(_ message.Value, err error) { readErr = err })
		e.Abort(tx)
	})
	tc.run(2 * time.Second)
	if !res.done || res.outcome != Committed {
		t.Fatalf("forwarded txn: %+v", res)
	}
	for _, site := range []int{0, 1} {
		if v, ok := tc.sharded(site).GroupStore(0).Get(a); !ok || string(v.Value) != "routed" {
			t.Fatalf("site %d missing forwarded write: %q ok=%v", site, v.Value, ok)
		}
	}
	if !errors.Is(readErr, ErrNotReplicated) {
		t.Fatalf("read of unreplicated key: err=%v, want ErrNotReplicated", readErr)
	}
	tc.checkGroupConvergence()
}

// TestShardedCertificationConflict: two concurrent read-modify-writes of
// the same key inside one group; the group's total order commits exactly
// the first.
func TestShardedCertificationConflict(t *testing.T) {
	tc := newTestCluster(t, 4, "sharded", shardedCfg(2, 2), 9)
	ring := tc.sharded(0).Ring()
	a := keyIn(t, ring, 0, "a")
	seed := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{{Key: a, Value: message.Value("v0")}})
	x := tc.runTxn(time.Second, 0, false, []message.Key{a}, []message.KV{{Key: a, Value: message.Value("x")}})
	y := tc.runTxn(time.Second, 1, false, []message.Key{a}, []message.KV{{Key: a, Value: message.Value("y")}})
	tc.run(3 * time.Second)
	if !seed.done || seed.outcome != Committed {
		t.Fatalf("seed: %+v", seed)
	}
	if !x.done || !y.done {
		t.Fatalf("not done: x=%v y=%v", x.done, y.done)
	}
	committed := 0
	for _, r := range []*txResult{x, y} {
		if r.outcome == Committed {
			committed++
		} else if r.reason != ReasonCertification {
			t.Fatalf("abort reason %v, want certification", r.reason)
		}
	}
	if committed != 1 {
		t.Fatalf("committed %d of 2 conflicting txns, want exactly 1", committed)
	}
	tc.checkGroupConvergence()
}

// TestShardedCertifyBlockedFootprint pins certification against
// certified-but-undecided cross-shard footprints: a read of a key the
// blocking prepare WRITES must fail (else a transaction straddling the
// prepare's decision across groups commits a fractured read), a read of a
// read-only hold passes, a write fails against any hold, and overlapping
// holders of one key release independently — the key stays blocked until
// its last undecided holder's decision.
func TestShardedCertifyBlockedFootprint(t *testing.T) {
	g := &shardGroup{replicaGroup: &replicaGroup{
		lastCommit: make(map[message.Key]uint64),
		blocked:    make(map[message.Key]*blockSet),
	}}
	p1 := message.TxnID{Site: 1, Seq: 1}
	p2 := message.TxnID{Site: 2, Seq: 1}
	readOf := func(k message.Key) []message.KeyVer { return []message.KeyVer{{Key: k}} }
	writeOf := func(k message.Key) []message.KV { return []message.KV{{Key: k}} }

	// p1 prepares with footprint {x written, y read}.
	g.block(p1, []message.Key{"x", "y"}, writeOf("x"))
	if g.certify(readOf("x"), nil, nil) {
		t.Fatal("read of a key a blocked prepare writes must fail certification")
	}
	if !g.certify(readOf("y"), nil, nil) {
		t.Fatal("read of a key a blocked prepare only reads must pass")
	}
	if g.certify(nil, nil, writeOf("x")) || g.certify(nil, nil, writeOf("y")) {
		t.Fatal("writes to any blocked key must fail certification")
	}

	// p2 also holds y (read-read overlap certifies independently); p2's
	// decision landing first must NOT unblock p1's hold on y.
	g.block(p2, []message.Key{"y"}, nil)
	g.unblock(p2, []message.Key{"y"})
	if g.certify(nil, nil, writeOf("y")) {
		t.Fatal("y unblocked by p2's decision while p1 is still undecided")
	}
	g.unblock(p1, []message.Key{"x", "y"})
	if !g.certify(readOf("x"), nil, nil) || !g.certify(nil, nil, writeOf("y")) {
		t.Fatal("footprint still blocked after the last holder's decision")
	}
	if len(g.blocked) != 0 {
		t.Fatalf("blocked map leaked %d keys", len(g.blocked))
	}
}

// TestShardedCrossShardCommit: a transaction spanning both groups commits
// atomically — its sub-writesets land in every touched group.
func TestShardedCrossShardCommit(t *testing.T) {
	tc := newTestCluster(t, 4, "sharded", shardedCfg(2, 2), 10)
	ring := tc.sharded(0).Ring()
	a := keyIn(t, ring, 0, "a")
	b := keyIn(t, ring, 1, "b")
	res := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{
		{Key: a, Value: message.Value("cross-a")},
		{Key: b, Value: message.Value("cross-b")},
	})
	tc.run(2 * time.Second)
	if !res.done || res.outcome != Committed {
		t.Fatalf("cross-shard txn: %+v", res)
	}
	for _, site := range []int{0, 1} {
		if v, ok := tc.sharded(site).GroupStore(0).Get(a); !ok || string(v.Value) != "cross-a" {
			t.Fatalf("site %d missing group-0 half: %q ok=%v", site, v.Value, ok)
		}
	}
	for _, site := range []int{2, 3} {
		if v, ok := tc.sharded(site).GroupStore(1).Get(b); !ok || string(v.Value) != "cross-b" {
			t.Fatalf("site %d missing group-1 half: %q ok=%v", site, v.Value, ok)
		}
	}
	tc.checkGroupConvergence()
}

// TestShardedCrossShardStaleReadAbortsEverywhere: a cross-shard
// transaction whose read set went stale must abort in EVERY touched group
// — no group may install its half (the atomicity invariant).
func TestShardedCrossShardStaleReadAbortsEverywhere(t *testing.T) {
	tc := newTestCluster(t, 4, "sharded", shardedCfg(2, 2), 11)
	ring := tc.sharded(0).Ring()
	a := keyIn(t, ring, 0, "a")
	b := keyIn(t, ring, 1, "b")
	seed := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{{Key: a, Value: message.Value("v0")}})

	// Manual drive: read a at t=1s, commit at t=2s — after a conflicting
	// single-group write of a at t=1.5s invalidated the read.
	var cross struct {
		done    bool
		outcome Outcome
		reason  AbortReason
	}
	tc.c.Schedule(time.Second, func() {
		e := tc.sharded(0)
		tx := e.Begin(false)
		e.Read(tx, a, func(_ message.Value, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
		})
		if err := e.Write(tx, a, message.Value("stale-a")); err != nil {
			t.Errorf("write a: %v", err)
		}
		if err := e.Write(tx, b, message.Value("stale-b")); err != nil {
			t.Errorf("write b: %v", err)
		}
		tc.c.Schedule(time.Second, func() {
			e.Commit(tx, func(o Outcome, r AbortReason) {
				cross.done, cross.outcome, cross.reason = true, o, r
			})
		})
	})
	conflict := tc.runTxn(1500*time.Millisecond, 1, false, nil, []message.KV{{Key: a, Value: message.Value("v1")}})
	tc.run(4 * time.Second)

	if !seed.done || seed.outcome != Committed {
		t.Fatalf("seed: %+v", seed)
	}
	if !conflict.done || conflict.outcome != Committed {
		t.Fatalf("conflicting writer: %+v", conflict)
	}
	if !cross.done || cross.outcome != Aborted || cross.reason != ReasonCertification {
		t.Fatalf("cross-shard txn: %+v, want certification abort", cross)
	}
	// Neither half may exist anywhere: group 0 kept the conflicting value,
	// group 1 never saw b.
	for _, site := range []int{0, 1} {
		if v, _ := tc.sharded(site).GroupStore(0).Get(a); string(v.Value) != "v1" {
			t.Fatalf("site %d group-0 %q = %q, want the conflicting writer's v1", site, a, v.Value)
		}
	}
	for _, site := range []int{2, 3} {
		if _, ok := tc.sharded(site).GroupStore(1).Get(b); ok {
			t.Fatalf("site %d installed the aborted transaction's group-1 half", site)
		}
	}
	tc.checkGroupConvergence()
}

// TestShardedOverlappingGroups: RF*Groups > n makes groups share sites; a
// site in both groups hosts two stacks and commits cross-shard
// transactions entirely locally.
func TestShardedOverlappingGroups(t *testing.T) {
	tc := newTestCluster(t, 4, "sharded", shardedCfg(2, 3), 12)
	ring := tc.sharded(0).Ring()
	// Placement: group 0 = {0,1,2}, group 1 = {0,2,3}; sites 0 and 2
	// replicate both.
	both := -1
	for i := 0; i < 4; i++ {
		if len(ring.SiteGroups(message.SiteID(i))) == 2 {
			both = i
			break
		}
	}
	if both < 0 {
		t.Fatal("no site replicates both groups")
	}
	a := keyIn(t, ring, 0, "a")
	b := keyIn(t, ring, 1, "b")
	res := tc.runTxn(time.Millisecond, both, false, nil, []message.KV{
		{Key: a, Value: message.Value("xa")},
		{Key: b, Value: message.Value("xb")},
	})
	tc.run(2 * time.Second)
	if !res.done || res.outcome != Committed {
		t.Fatalf("cross-shard txn at dual-member site: %+v", res)
	}
	for _, m := range ring.Members(0) {
		if v, ok := tc.sharded(int(m)).GroupStore(0).Get(a); !ok || string(v.Value) != "xa" {
			t.Fatalf("site %v group 0: %q ok=%v", m, v.Value, ok)
		}
	}
	for _, m := range ring.Members(1) {
		if v, ok := tc.sharded(int(m)).GroupStore(1).Get(b); !ok || string(v.Value) != "xb" {
			t.Fatalf("site %v group 1: %q ok=%v", m, v.Value, ok)
		}
	}
	tc.checkGroupConvergence()
}

// TestShardedKillRestartRecovery is the acceptance fault test: in a
// 2-group cluster a dual-member site runs per-group WALs and
// checkpointers, is killed, recovered through checkpoint.Recover on each
// group directory, and caught up per group via the existing
// retransmission/state-transfer path. Every acknowledged commit survives,
// the groups reconverge, and the post-rejoin trace window passes
// tracecheck's per-group invariants.
func TestShardedKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 4096
	// Placement for Groups=2, RF=3 over 4 sites: group 0 = {0,1,2},
	// group 1 = {0,2,3}. Site 2 replicates both groups — the kill target.
	const victim = 2
	gdir := func(g message.GroupID) string { return filepath.Join(dir, g.String()) }
	pol := func(g message.GroupID) checkpoint.Policy {
		return checkpoint.Policy{Dir: gdir(g), Interval: 150 * time.Millisecond, Retain: 2}
	}

	link := netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}
	c := sim.NewCluster(4, link, 2)
	rec := sgraph.NewRecorder()
	cfg := shardedCfg(2, 3)
	cfg.Recorder = rec
	cfg.GroupCommit = commitpipe.Policy{MaxBatch: 2}
	tc := &testCluster{t: t, c: c, rec: rec}
	tracers := make([]*trace.Tracer, 4)
	for i := 0; i < 4; i++ {
		rt := c.Runtime(message.SiteID(i))
		siteCfg := cfg
		tracers[i] = trace.New(message.SiteID(i), 1<<14, rt.Now)
		siteCfg.Tracer = tracers[i]
		if i == victim {
			siteCfg.GroupWAL = func(g message.GroupID) *storage.WAL {
				w, err := storage.OpenSegments(gdir(g), segBytes)
				if err != nil {
					t.Fatalf("open group WAL %v: %v", g, err)
				}
				return w
			}
			siteCfg.GroupCheckpoint = pol
		}
		e, err := NewSharded(rt, siteCfg)
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		tc.engines = append(tc.engines, e)
		c.Bind(message.SiteID(i), e)
	}
	c.Start()
	ring := tc.sharded(0).Ring()
	a := keyIn(t, ring, 0, "a")
	b := keyIn(t, ring, 1, "b")

	// Per-phase keys pinned to alternating groups (deriving key names does
	// not preserve the group — each key hashes independently).
	p1keys := make([]message.Key, 6)
	p2keys := make([]message.Key, 4)
	p3keys := make([]message.Key, 3)
	for i := range p1keys {
		p1keys[i] = keyIn(t, ring, message.GroupID(i%2), fmt.Sprintf("p1x%dx", i))
	}
	for i := range p2keys {
		p2keys[i] = keyIn(t, ring, message.GroupID(i%2), fmt.Sprintf("p2x%dx", i))
	}
	for i := range p3keys {
		p3keys[i] = keyIn(t, ring, message.GroupID(i%2), fmt.Sprintf("p3x%dx", i))
	}

	// Phase 1: commits in both groups, absorbed by the victim's WALs and
	// checkpoints, all acknowledged before the kill.
	var phase1 []*txResult
	for i := 0; i < 6; i++ {
		phase1 = append(phase1, tc.runTxn(time.Duration(100+i*150)*time.Millisecond,
			i%2*3, false, nil, []message.KV{{Key: p1keys[i], Value: message.Value("v1")}}))
	}
	tc.c.Schedule(2*time.Second, func() { tc.c.Crash(victim) })

	// Phase 2: commits while the victim is down — they reach it only via
	// per-group state transfer after restart.
	var phase2 []*txResult
	for i := 0; i < 4; i++ {
		phase2 = append(phase2, tc.runTxn(2200*time.Millisecond+time.Duration(i)*200*time.Millisecond,
			i%2*3, false, nil, []message.KV{{Key: p2keys[i], Value: message.Value("v2")}}))
	}

	// Restart at t=5s: recover each group directory independently and seed
	// the per-group initial state.
	tc.c.Schedule(5*time.Second, func() {
		stores := make(map[message.GroupID]*storage.Store)
		wals := make(map[message.GroupID]*storage.WAL)
		stacks := make(map[message.GroupID]*message.StackSync)
		shards := make(map[message.GroupID]*message.ShardRecovery)
		for _, g := range []message.GroupID{0, 1} {
			st, w, info, err := checkpoint.Recover(gdir(g), segBytes)
			if err != nil {
				t.Fatalf("recover group %v: %v", g, err)
			}
			if info.CheckpointIndex == 0 {
				t.Fatalf("group %v: no checkpoint before the kill", g)
			}
			stores[g], wals[g], stacks[g], shards[g] = st, w, info.Stack, info.Shard
		}
		// Phase-1 writes must already be durable per group.
		for i, key := range p1keys {
			g := message.GroupID(i % 2)
			if v, ok := stores[g].Get(key); !ok || string(v.Value) != "v1" {
				t.Fatalf("acked phase-1 write %s lost in group %v: %q ok=%v", key, g, v.Value, ok)
			}
		}
		tc.c.Recover(victim)
		rcfg := shardedCfg(2, 3)
		rcfg.Recorder = tc.rec
		rcfg.Tracer = tracers[victim]
		rcfg.GroupWAL = func(g message.GroupID) *storage.WAL { return wals[g] }
		rcfg.GroupInitialStore = func(g message.GroupID) *storage.Store { return stores[g] }
		rcfg.GroupInitialStack = func(g message.GroupID) *message.StackSync { return stacks[g] }
		rcfg.GroupInitialShard = func(g message.GroupID) *message.ShardRecovery { return shards[g] }
		rcfg.GroupCheckpoint = pol
		fresh, err := NewSharded(tc.c.Runtime(victim), rcfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		tc.engines[victim] = fresh
		tc.c.Bind(victim, fresh)
		fresh.Start()
	})

	// Survivor traffic right after the restart exposes the victim's
	// per-group gaps and triggers catch-up.
	post := tc.runTxn(5500*time.Millisecond, 0, false, nil, []message.KV{{Key: a, Value: message.Value("post")}})

	// Phase 3, after the rejoin settled: commits from every site including
	// the restarted one — the tracecheck window.
	const cutoff = 11 * time.Second
	var phase3 []*txResult
	for i := 0; i < 3; i++ {
		phase3 = append(phase3, tc.runTxn(cutoff+200*time.Millisecond+time.Duration(i)*300*time.Millisecond,
			i, false, nil, []message.KV{{Key: p3keys[i], Value: message.Value("v3")}}))
	}
	fromVictim := tc.runTxn(cutoff+1500*time.Millisecond, victim, false, nil,
		[]message.KV{{Key: b, Value: message.Value("hello")}})
	tc.run(16 * time.Second)

	for i, r := range append(append(append([]*txResult{}, phase1...), phase2...), phase3...) {
		if !r.done || r.outcome != Committed {
			t.Fatalf("txn %d (site %d): done=%v outcome=%v reason=%v", i, r.site, r.done, r.outcome, r.reason)
		}
	}
	if !post.done || post.outcome != Committed {
		t.Fatalf("post-restart txn: %+v", post)
	}
	if !fromVictim.done || fromVictim.outcome != Committed {
		t.Fatalf("restarted site's own txn: %+v", fromVictim)
	}

	// The victim reconverged in both groups.
	for _, g := range []message.GroupID{0, 1} {
		ref := tc.sharded(0).GroupStore(g)
		got := tc.sharded(victim).GroupStore(g)
		for _, ent := range ref.Snapshot() {
			want, _ := ref.Get(ent.Key)
			have, _ := got.Get(ent.Key)
			if string(have.Value) != string(want.Value) {
				t.Fatalf("victim group %v diverges on %q: %q vs %q", g, ent.Key, have.Value, want.Value)
			}
		}
	}
	if err := tc.rec.Check(); err != nil {
		t.Fatalf("serializability: %v", err)
	}

	// Cold recovery per group directory: every acknowledged write present.
	for _, g := range []message.GroupID{0, 1} {
		st, w, info, err := checkpoint.Recover(gdir(g), segBytes)
		if err != nil {
			t.Fatalf("cold recover group %v: %v", g, err)
		}
		w.Close()
		if info.CheckpointIndex == 0 {
			t.Fatalf("group %v: no checkpoint survived", g)
		}
		ref := tc.sharded(0).GroupStore(g)
		for _, ent := range ref.Snapshot() {
			want, _ := ref.Get(ent.Key)
			have, ok := st.Get(ent.Key)
			if !ok || string(have.Value) != string(want.Value) {
				t.Fatalf("group %v key %q lost across cold recovery: %q ok=%v want %q",
					g, ent.Key, have.Value, ok, want.Value)
			}
		}
	}

	// The rejoin window passes the offline per-group invariant checks.
	runShardedTracecheckWindow(t, tracers, cutoff, 2)
}

// runShardedTracecheckWindow exports every span at or after cutoff with a
// Groups-bearing meta line and runs cmd/tracecheck over it, failing the
// test on any violation of the per-group invariants.
func runShardedTracecheckWindow(t *testing.T, tracers []*trace.Tracer, cutoff time.Duration, groups int) {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range tracers {
		var kept []trace.Span
		for _, s := range tr.Spans() {
			if s.Start >= cutoff {
				kept = append(kept, s)
			}
		}
		meta := trace.Meta{Site: int32(tr.Site()), Proto: "sharded", Sites: len(tracers), AtomicMode: "sequencer", Groups: groups}
		if err := trace.WriteJSONL(&buf, meta, kept); err != nil {
			t.Fatal(err)
		}
	}
	tmp := t.TempDir()
	dump := filepath.Join(tmp, "rejoin.jsonl")
	if err := os.WriteFile(dump, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(tmp, "tracecheck")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/tracecheck").CombinedOutput(); err != nil {
		t.Fatalf("build tracecheck: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, dump).CombinedOutput()
	if err != nil {
		t.Fatalf("tracecheck rejects the sharded rejoin trace: %v\n%s", err, out)
	}
}

// unwrapShard strips routing envelopes (group wrapper, broadcast envelope,
// leader forward) down to the logical cross-shard protocol message.
func unwrapShard(m message.Message) message.Message {
	for {
		switch x := m.(type) {
		case *message.GroupMsg:
			m = x.Inner
		case *message.Bcast:
			m = x.Payload
		case *message.ShardForward:
			m = x.Req
		default:
			return m
		}
	}
}

// TestShardedCoordinatorFailover kills a cross-shard coordinator at each
// phase of its certification round and checks that the lowest live member
// of each prepared group terminates the round: same decision everywhere,
// footprints released, zero pending coordinations on the survivors — all
// without the coordinator restarting. Site 1 coordinates (a group 0 member
// but no group's leader, so its death breaks no sequencer).
func TestShardedCoordinatorFailover(t *testing.T) {
	const victim = message.SiteID(1)
	phases := []struct {
		name string
		// fire marks the delivery after which the victim is crashed.
		fire func(from, to message.SiteID, m message.Message) bool
		// cut severs the victim's links to group 1 before the transaction,
		// so group 1 never sees the prepare and the round must abort.
		cut bool
		// commit is the decision the successor must reach.
		commit bool
	}{
		{name: "pre-prepare", commit: true,
			fire: func(_, _ message.SiteID, m message.Message) bool {
				p, ok := unwrapShard(m).(*message.ShardPrepare)
				return ok && p.Coord == victim
			}},
		{name: "post-vote", commit: true,
			fire: func(_, to message.SiteID, m message.Message) bool {
				_, ok := unwrapShard(m).(*message.ShardVote)
				return ok && to == victim
			}},
		{name: "post-decision", commit: true,
			fire: func(from, _ message.SiteID, m message.Message) bool {
				_, ok := unwrapShard(m).(*message.ShardDecision)
				return ok && from == victim
			}},
		{name: "partial-prepare-abort", cut: true, commit: false,
			fire: func(_, _ message.SiteID, m message.Message) bool {
				p, ok := unwrapShard(m).(*message.ShardPrepare)
				return ok && p.Coord == victim
			}},
	}
	for _, ph := range phases {
		ph := ph
		t.Run(ph.name, func(t *testing.T) {
			cfg := shardedCfg(2, 2)
			cfg.FailureInterval = 20 * time.Millisecond
			cfg.FailureTimeout = 100 * time.Millisecond
			tc := newTestCluster(t, 4, "sharded", cfg, 29)
			ring := tc.sharded(0).Ring()
			ka := keyIn(t, ring, 0, "fa")
			kb := keyIn(t, ring, 1, "fb")

			// Base values, acknowledged before the chaos, so the abort case
			// has prior state to preserve.
			b0 := tc.runTxn(50*time.Millisecond, 0, false, nil, []message.KV{{Key: ka, Value: message.Value("old")}})
			b1 := tc.runTxn(60*time.Millisecond, 2, false, nil, []message.KV{{Key: kb, Value: message.Value("old")}})
			tc.run(500 * time.Millisecond)
			if !b0.done || b0.outcome != Committed || !b1.done || b1.outcome != Committed {
				t.Fatal("base writes did not commit")
			}

			if ph.cut {
				tc.c.BlockLink(victim, 2)
				tc.c.BlockLink(victim, 3)
			}
			fired := false
			tc.c.OnDeliver = func(from, to message.SiteID, m message.Message, _ time.Duration) {
				if fired || !ph.fire(from, to, m) {
					return
				}
				fired = true
				tc.c.Schedule(0, func() { tc.c.Crash(victim) })
			}

			cross := tc.runTxn(100*time.Millisecond, int(victim), false, nil,
				[]message.KV{{Key: ka, Value: message.Value("new")}, {Key: kb, Value: message.Value("new")}})
			tc.run(3 * time.Second)
			if !fired {
				t.Fatal("kill trigger never fired — no cross-shard round observed")
			}
			if cross.done {
				t.Fatalf("dead coordinator's client saw an answer: %+v", cross)
			}

			// Every live replica resolved the round to the same outcome.
			want := "old"
			if ph.commit {
				want = "new"
			}
			checks := []struct {
				site int
				g    message.GroupID
				key  message.Key
			}{{0, 0, ka}, {2, 1, kb}, {3, 1, kb}}
			for _, ck := range checks {
				got, _ := tc.sharded(ck.site).GroupStore(ck.g).Get(ck.key)
				if string(got.Value) != want {
					t.Fatalf("%s: site %d group %v key %q = %q, want %q",
						ph.name, ck.site, ck.g, ck.key, got.Value, want)
				}
			}
			// No stuck prepares or dangling coordinations on the survivors.
			for _, site := range []int{0, 2, 3} {
				se := tc.sharded(site)
				if p := se.PendingCoord(); p != 0 {
					t.Fatalf("site %d: %d pending coordinations after failover", site, p)
				}
				if o := se.OrphanedPrepares(); o != 0 {
					t.Fatalf("site %d: %d orphaned prepares after failover", site, o)
				}
			}
			// The footprint is released: new writers on the same keys commit.
			a0 := tc.runTxn(0, 0, false, nil, []message.KV{{Key: ka, Value: message.Value("after")}})
			a1 := tc.runTxn(0, 2, false, nil, []message.KV{{Key: kb, Value: message.Value("after")}})
			tc.run(2 * time.Second)
			if !a0.done || a0.outcome != Committed || !a1.done || a1.outcome != Committed {
				t.Fatalf("keys still blocked after failover: %+v %+v", a0, a1)
			}
		})
	}
}

// TestShardedDurableAckRace pins the durable-ack race: the coordinator's
// commit decision reaches its own group, but the coordinator dies before the
// second group or the client hear it. The orphaned group's successor must
// finish the round with the SAME outcome (commit — group 0 already decided),
// apply it exactly once per replica, and the dead coordinator's client must
// never be answered (and certainly never answered twice).
func TestShardedDurableAckRace(t *testing.T) {
	const victim = message.SiteID(1)
	link := netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}
	c := sim.NewCluster(4, link, 2)
	rec := sgraph.NewRecorder()
	cfg := shardedCfg(2, 2)
	cfg.Recorder = rec
	cfg.FailureInterval = 20 * time.Millisecond
	cfg.FailureTimeout = 100 * time.Millisecond
	tc := &testCluster{t: t, c: c, rec: rec}
	tracers := make([]*trace.Tracer, 4)
	for i := 0; i < 4; i++ {
		rt := c.Runtime(message.SiteID(i))
		siteCfg := cfg
		tracers[i] = trace.New(message.SiteID(i), 1<<14, rt.Now)
		siteCfg.Tracer = tracers[i]
		se, err := NewSharded(rt, siteCfg)
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		tc.engines = append(tc.engines, se)
		c.Bind(message.SiteID(i), se)
	}
	c.Start()

	ring := tc.sharded(0).Ring()
	ka := keyIn(t, ring, 0, "ra")
	kb := keyIn(t, ring, 1, "rb")

	// The race window: when the victim's decision submission reaches its own
	// group's sequencer (site 0), the forward to group 1's leader is still in
	// flight. Crash the victim and sever its outbound links so that forward
	// is lost — group 0 decided, group 1 durably prepared, client unacked.
	fired := false
	c.OnDeliver = func(from, to message.SiteID, m message.Message, _ time.Duration) {
		if fired || from != victim || to != 0 {
			return
		}
		if _, ok := unwrapShard(m).(*message.ShardDecision); !ok {
			return
		}
		fired = true
		c.Schedule(0, func() {
			c.BlockLink(victim, 2)
			c.BlockLink(victim, 3)
			c.Crash(victim)
		})
	}

	var txid message.TxnID
	acks := 0
	c.Schedule(50*time.Millisecond, func() {
		e := tc.engines[int(victim)]
		tx := e.Begin(false)
		if err := e.Write(tx, ka, message.Value("new")); err != nil {
			t.Errorf("write %q: %v", ka, err)
		}
		if err := e.Write(tx, kb, message.Value("new")); err != nil {
			t.Errorf("write %q: %v", kb, err)
		}
		txid = tx.ID
		e.Commit(tx, func(Outcome, AbortReason) { acks++ })
	})
	if _, err := c.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("decision trigger never fired — no cross-shard decision observed")
	}
	if acks != 0 {
		t.Fatalf("dead coordinator's client was answered %d times (want 0 — and never 2)", acks)
	}
	// A successor must actually have run the termination protocol for the
	// orphaned group-1 prepare; if the forward outran the decision the race
	// window never opened and the seed must change.
	takeovers := 0
	for _, tr := range tracers {
		for _, sp := range tr.Spans() {
			if sp.Kind == trace.KindShardTakeover && sp.Trace == txid {
				takeovers++
			}
		}
	}
	if takeovers == 0 {
		t.Fatal("no takeover span recorded: the forward beat the crash, race window never opened")
	}
	// Same outcome everywhere, applied exactly once per live replica.
	checks := []struct {
		site int
		g    message.GroupID
		key  message.Key
	}{{0, 0, ka}, {2, 1, kb}, {3, 1, kb}}
	for _, ck := range checks {
		st := tc.sharded(ck.site).GroupStore(ck.g)
		if v, _ := st.Get(ck.key); string(v.Value) != "new" {
			t.Fatalf("site %d key %q = %q, want \"new\" (the decided commit must survive its coordinator)",
				ck.site, ck.key, v.Value)
		}
		n := 0
		for _, id := range st.VersionOrder(ck.key) {
			if id == txid {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("site %d key %q applied %d times for %v, want exactly once", ck.site, ck.key, n, txid)
		}
	}
	for _, site := range []int{0, 2, 3} {
		se := tc.sharded(site)
		if p, o := se.PendingCoord(), se.OrphanedPrepares(); p != 0 || o != 0 {
			t.Fatalf("site %d left pending=%d orphans=%d after resolution", site, p, o)
		}
	}
}
