package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/message"
	"repro/internal/storage"
)

// These tests exercise engine-internal edge paths that the randomized
// integration workloads may or may not hit on a given seed.

// TestReliableDuplicateAcksIgnored feeds duplicated and stale
// acknowledgements into protocol R's per-operation pipeline.
func TestReliableDuplicateAcksIgnored(t *testing.T) {
	tc := newTestCluster(t, 3, "reliable", Config{PerOpWrites: true}, 61)
	res := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "v"), kv("y", "v")})
	// Inject forged duplicate acks mid-run; the pipeline must not advance
	// twice or panic.
	tc.c.Schedule(2*time.Millisecond, func() {
		e := tc.engines[0].(*ReliableEngine)
		e.onWriteAck(message.WriteAck{Txn: message.TxnID{Site: 0, Seq: 1}, OpSeq: 1, By: 1, OK: true})
		e.onWriteAck(message.WriteAck{Txn: message.TxnID{Site: 0, Seq: 1}, OpSeq: 99, By: 1, OK: true}) // stale opseq
		e.onWriteAck(message.WriteAck{Txn: message.TxnID{Site: 9, Seq: 9}, OpSeq: 1, By: 1, OK: true})  // unknown txn
	})
	tc.run(5 * time.Second)
	if !res.done || res.outcome != Committed {
		t.Fatalf("txn: %+v", res)
	}
	tc.checkInvariants()
	tc.checkNoLeaks()
}

// TestOpsSent pins what an abort announces: every write operation that
// left the site, in flight or acknowledged, and for a batched pipeline the
// one batch from the moment it is sent until the transaction finishes
// (votes may already be out when a view change aborts it).
func TestOpsSent(t *testing.T) {
	writes := []message.KV{kv("x", "v"), kv("y", "v")}
	for _, tc := range []struct {
		name       string
		batched    bool
		nextOp     int
		opInFlight bool
		want       int
	}{
		{"per-op/none sent", false, 0, false, 0},
		{"per-op/first in flight", false, 0, true, 1},
		{"per-op/first acknowledged", false, 1, false, 1},
		{"per-op/all acknowledged", false, 2, false, 2},
		{"batch/not sent", true, 0, false, 0},
		{"batch/in flight", true, 2, true, 1},
		{"batch/acknowledged", true, 3, false, 1},
	} {
		tx := &Tx{writes: writes, wrote: true, nextOp: tc.nextOp, opInFlight: tc.opInFlight}
		if got := opsSent(tx, tc.batched); got != tc.want {
			t.Errorf("%s: opsSent = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestReliableStragglerAfterAbort checks the tombstone drain: with relaying
// enabled a write can arrive after the abort decision; the record must be
// garbage-collected once all announced operations are seen.
func TestReliableStragglerAfterAbort(t *testing.T) {
	tc := newTestCluster(t, 3, "reliable", Config{Relay: true}, 62)
	// Two conflicting writers: one will abort via NACK, and relayed
	// duplicates exercise the drain path.
	a := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "A")})
	b := tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("x", "B")})
	tc.run(5 * time.Second)
	if !a.done || !b.done {
		t.Fatal("unfinished")
	}
	tc.checkNoLeaks()
}

// TestCausalAckedByExposure checks the implicit-acknowledgement vector the
// paper's protocol mines from exposed vector clocks.
func TestCausalAckedByExposure(t *testing.T) {
	tc := newTestCluster(t, 3, "causal", Config{CausalHeartbeat: 10 * time.Millisecond}, 63)
	res := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "v")})
	tc.run(2 * time.Second)
	if !res.done || res.outcome != Committed {
		t.Fatalf("txn: %+v", res)
	}
	e := tc.engines[0].(*CausalEngine)
	acked := e.AckedBy()
	for _, peer := range []message.SiteID{1, 2} {
		if acked[peer] < 1 {
			t.Fatalf("peer %v implicit ack %d, want >= 1 (write seq)", peer, acked[peer])
		}
	}
}

// TestCausalHeartbeatSuppressedWhenBusy ensures a chatty site does not add
// null broadcasts on top of its protocol traffic.
func TestCausalHeartbeatSuppressedWhenBusy(t *testing.T) {
	tc := newTestCluster(t, 2, "causal", Config{CausalHeartbeat: 50 * time.Millisecond}, 64)
	// Site 0 writes every 20ms — more frequent than the heartbeat.
	for i := 0; i < 50; i++ {
		tc.runTxn(time.Duration(i*20)*time.Millisecond, 0, false, nil, []message.KV{kv("k", "v")})
	}
	tc.run(1200 * time.Millisecond)
	nulls := tc.c.Stats().ByPayload[message.KindCausalNull]
	// Site 1 is silent except decisions... it heartbeats; site 0 should
	// contribute ~0. Allow site 1's share only (~24 in 1.2s) plus slack.
	if nulls > 30 {
		t.Fatalf("%d null broadcasts despite busy traffic", nulls)
	}
}

// TestAtomicStorageGCAbort forces a snapshot read below the GC horizon;
// the client observes the storage error and the transaction aborts cleanly.
func TestAtomicStorageGCAbort(t *testing.T) {
	tc := newTestCluster(t, 2, "atomic", Config{}, 65)
	for _, e := range tc.engines {
		e.Store().MaxVersions = 2
	}
	var gotErr error
	tc.c.Schedule(time.Millisecond, func() {
		e := tc.engines[0]
		tx := e.Begin(false) // snapshot at index 0
		// Burn through versions of k so the old snapshot becomes
		// unreadable, then read from the stale transaction.
		var burn func(i int)
		burn = func(i int) {
			if i >= 6 {
				e.Read(tx, "k", func(_ message.Value, err error) { gotErr = err })
				return
			}
			w := e.Begin(false)
			if err := e.Write(w, "k", message.Value{byte(i)}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			e.Commit(w, func(Outcome, AbortReason) { burn(i + 1) })
		}
		burn(0)
	})
	tc.run(5 * time.Second)
	if !errors.Is(gotErr, storage.ErrVersionGone) {
		t.Fatalf("stale snapshot read returned %v, want ErrVersionGone", gotErr)
	}
}

// TestAtomicPiggybackStreamEquivalence runs the same conflicting schedule
// under both dissemination modes and under a cluster whose sites disagree
// on PerOpWrites, as during a roll from a release that disseminated writes
// causally by default: the deterministic certification outcomes must be
// identical, and the replicas must converge. A receiver applies a request
// by what it carries, not by its own setting — a site that read a
// causal-write request as inline would install nothing, and one that
// awaited WriteReqs for an inline request would stall.
func TestAtomicPiggybackStreamEquivalence(t *testing.T) {
	outcomes := func(name string, causalAt func(site int) bool) []Outcome {
		tc := newTestClusterWith(t, 3, "atomic", Config{}, 66, func(i int, c Config) Config {
			c.PerOpWrites = causalAt(i)
			return c
		})
		var rs []*txResult
		for i := 0; i < 20; i++ {
			rs = append(rs, tc.runTxn(time.Duration(i%5)*time.Millisecond, i%3, false,
				keys("hot"), []message.KV{kv("hot", "v"), kv(fmt.Sprintf("k%d", i), "v")}))
		}
		tc.run(10 * time.Second)
		out := make([]Outcome, len(rs))
		for i, r := range rs {
			if !r.done {
				t.Fatalf("%s: txn %d unfinished", name, i)
			}
			out[i] = r.outcome
		}
		tc.checkInvariants()
		tc.checkNoLeaks()
		return out
	}
	a := outcomes("stream", func(int) bool { return true })
	for _, arm := range []struct {
		name     string
		causalAt func(int) bool
	}{
		{"piggyback", func(int) bool { return false }},
		{"mixed", func(site int) bool { return site == 0 }},
	} {
		b := outcomes(arm.name, arm.causalAt)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("txn %d: stream=%v %s=%v", i, a[i], arm.name, b[i])
			}
		}
	}
}

// TestAtomicDrainReentry: a commit callback runs inside the pipeline's ack
// loop, and a client that commits its next transactions there may drain
// again while the outer group still has acknowledgements to fire (the
// sequencer drains every delivery at once). The inner drain must build its
// group in slices of its own: were it to reuse the outer group's scratch,
// the outer group's later transactions would be overwritten and their
// clients would never hear their outcome. The batch orderer seals two
// requests per batch, so both groups hold two, and the pipeline — no WAL,
// no group commit — fires every acknowledgement inside its ack loop.
func TestAtomicDrainReentry(t *testing.T) {
	const rounds = 4
	tc := newTestCluster(t, 3, "atomic", Config{
		AtomicMode: broadcast.AtomicBatch, AtomicBatchMsgs: 2, AtomicBatchWindow: time.Hour,
	}, 69)
	e := tc.engines[0].(*AtomicEngine)
	outcomes := make(map[string]Outcome)
	commit := func(key string, then func()) {
		tx := e.Begin(false)
		if err := e.Write(tx, message.Key(key), message.Value(key)); err != nil {
			t.Errorf("write %s: %v", key, err)
			return
		}
		e.Commit(tx, func(o Outcome, _ AbortReason) {
			outcomes[key] = o
			if then != nil {
				then()
			}
		})
	}
	// Round r commits a and b, sealed into one batch. a's callback — the
	// first acknowledgement of its group — commits round r+1 and drains it
	// at once, while b still waits in the same ack loop.
	var round func(r int)
	round = func(r int) {
		if r == rounds {
			return
		}
		commit(fmt.Sprintf("a%d", r), func() {
			round(r + 1)
			e.drain()
		})
		commit(fmt.Sprintf("b%d", r), nil)
	}
	// A first pair warms the group scratch the rounds' outer drains reuse.
	tc.c.Schedule(time.Millisecond, func() {
		commit("w0", nil)
		commit("w1", nil)
	})
	tc.c.Schedule(50*time.Millisecond, func() { round(0) })
	tc.run(5 * time.Second)
	keys := []string{"w0", "w1"}
	for r := 0; r < rounds; r++ {
		keys = append(keys, fmt.Sprintf("a%d", r), fmt.Sprintf("b%d", r))
	}
	for _, key := range keys {
		if o, ok := outcomes[key]; !ok || o != Committed {
			t.Errorf("%s: outcome %v (heard: %v)", key, o, ok)
		}
		for i, eng := range tc.engines {
			if rec, _ := eng.Store().Get(message.Key(key)); string(rec.Value) != key {
				t.Errorf("site %d: %s = %q", i, key, rec.Value)
			}
		}
	}
	tc.checkInvariants()
	tc.checkNoLeaks()
}

// TestCommitCallbackExactlyOnce guards the exactly-once contract of the
// commit callback across protocols under conflicting load.
func TestCommitCallbackExactlyOnce(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 67)
			fires := make([]int, 10)
			for i := 0; i < 10; i++ {
				i := i
				tc.c.Schedule(time.Millisecond, func() {
					e := tc.engines[i%3]
					tx := e.Begin(false)
					if err := e.Write(tx, "contested", message.Value{byte(i)}); err != nil {
						fires[i] = -1
						return
					}
					e.Commit(tx, func(Outcome, AbortReason) { fires[i]++ })
				})
			}
			tc.run(10 * time.Second)
			for i, n := range fires {
				if n != 1 && n != -1 {
					t.Fatalf("txn %d commit callback fired %d times", i, n)
				}
			}
		})
	}
}

// TestZeroWriteUpdateCommitsLocally: an "update" transaction that only
// read commits without any network traffic, like a read-only one.
func TestZeroWriteUpdateCommitsLocally(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 68)
			before := tc.c.Stats().Messages
			res := tc.runTxn(time.Millisecond, 0, false, keys("nothing"), nil)
			tc.run(time.Second)
			if !res.done || res.outcome != Committed {
				t.Fatalf("res: %+v", res)
			}
			// Heartbeat/membership traffic aside, no protocol messages
			// should have been needed; check store untouched instead.
			if tc.engines[1].Store().Len() != 0 {
				t.Fatal("stores mutated by a writeless transaction")
			}
			_ = before
		})
	}
}

// TestSnapshotReadOnlyAblation verifies the SnapshotReadOnly option: a
// read-only transaction holding no locks cannot NACK a concurrent writer,
// and the execution stays one-copy serializable.
func TestSnapshotReadOnlyAblation(t *testing.T) {
	for _, proto := range []string{"reliable", "causal"} {
		t.Run(proto, func(t *testing.T) {
			run := func(snapshot bool) (writerAborts int64) {
				cfg := cfgFor(proto)
				cfg.SnapshotReadOnly = snapshot
				tc := newTestCluster(t, 3, proto, cfg, 85)
				// Long read-only transactions over the hot key interleaved
				// with writers.
				for i := 0; i < 40; i++ {
					at := time.Duration(i*40) * time.Millisecond
					if i%2 == 0 {
						tc.runTxn(at, i%3, true, keys("hot", "cold"), nil)
						continue
					}
					tc.runTxn(at, i%3, false, nil, []message.KV{kv("hot", "v")})
				}
				tc.run(20 * time.Second)
				if err := tc.rec.Check(); err != nil {
					t.Fatalf("snapshot=%v serializability: %v", snapshot, err)
				}
				for _, e := range tc.engines {
					writerAborts += e.Stats().AbortsByReason[ReasonWriteConflict]
				}
				return writerAborts
			}
			locked := run(false)
			snap := run(true)
			if snap > locked {
				t.Fatalf("snapshot reads increased writer aborts: %d vs %d", snap, locked)
			}
			t.Logf("%s: writer aborts locked=%d snapshot=%d", proto, locked, snap)
		})
	}
}

// TestCausalViewChangeReleasesOrphansInTxnOrder: when a view change drops
// a site, protocol C releases the locks of the transactions that site
// homed, and each release resumes the local reads queued behind it. The
// releases must run in transaction order, not map order, so every seeded
// run resumes the readers identically.
func TestCausalViewChangeReleasesOrphansInTxnOrder(t *testing.T) {
	for seed := int64(70); seed < 90; seed++ {
		tc := newTestCluster(t, 3, "causal", failureCfg("causal"), seed)
		e := tc.engines[0].(*CausalEngine)
		var resumed []message.Key
		tc.c.Schedule(100*time.Millisecond, func() {
			for i, key := range []message.Key{"a", "b"} {
				w := &message.WriteReq{Txn: message.TxnID{Site: 2, Seq: uint64(100 + i)}, OpSeq: 1, Key: key, Value: message.Value("v")}
				e.deliver(broadcast.Delivery{Class: message.ClassCausal, Origin: 2, Payload: w})
			}
			for _, key := range []message.Key{"b", "a"} {
				key := key
				e.Read(e.Begin(true), key, func(_ message.Value, err error) {
					if err != nil {
						t.Errorf("seed %d: read %s: %v", seed, key, err)
					}
					resumed = append(resumed, key)
				})
			}
			if len(resumed) != 0 {
				t.Fatalf("seed %d: reads %v ran before the orphans' locks were released", seed, resumed)
			}
			tc.c.Crash(2)
		})
		tc.run(2 * time.Second)
		if fmt.Sprint(resumed) != "[a b]" {
			t.Fatalf("seed %d: readers resumed in order %v, want [a b] (the orphans' txn order)", seed, resumed)
		}
	}
}
