package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/membership"
	"repro/internal/message"
	"repro/internal/storage"
)

// failureCfg enables failure handling with detector timings suited to the
// simulated latencies.
func failureCfg(proto string) Config {
	cfg := Config{
		FailureInterval: 30 * time.Millisecond,
		FailureTimeout:  150 * time.Millisecond,
	}
	if proto == "causal" {
		cfg.CausalHeartbeat = 25 * time.Millisecond
	}
	return cfg
}

// survivors returns the indices of sites that are not crashed.
func (tc *testCluster) survivors() []int {
	var out []int
	for i := range tc.engines {
		if !tc.c.Crashed(message.SiteID(i)) {
			out = append(out, i)
		}
	}
	return out
}

// TestCommitsContinueAfterCrash crashes one site mid-run; after the view
// change excludes it, fresh update transactions at the survivors must
// commit (the paper's majority-view availability claim).
func TestCommitsContinueAfterCrash(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic"} {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 5, proto, failureCfg(proto), 21)
			// Warm-up transaction while everyone is alive.
			warm := tc.runTxn(50*time.Millisecond, 0, false, nil, []message.KV{kv("w", "warm")})
			tc.c.Schedule(time.Second, func() { tc.c.Crash(4) })
			// Post-crash transactions, issued well after the detector and
			// view change have had time to run.
			var post []*txResult
			for i := 0; i < 4; i++ {
				post = append(post, tc.runTxn(3*time.Second+time.Duration(i*50)*time.Millisecond,
					i, false, nil, []message.KV{kv(fmt.Sprintf("k%d", i), "post")}))
			}
			tc.run(10 * time.Second)
			if !warm.done || warm.outcome != Committed {
				t.Fatalf("warm-up txn: %+v", warm)
			}
			for i, res := range post {
				if !res.done || res.outcome != Committed {
					t.Fatalf("post-crash txn %d: done=%v outcome=%v reason=%v", i, res.done, res.outcome, res.reason)
				}
			}
			// Survivors converge.
			for _, i := range tc.survivors() {
				if v, _ := tc.engines[i].Store().Get("k0"); string(v.Value) != "post" {
					t.Fatalf("site %d missing post-crash write: %q", i, v.Value)
				}
			}
			if err := tc.rec.Check(); err != nil {
				t.Fatalf("serializability: %v", err)
			}
		})
	}
}

// TestInFlightCommitSurvivesCrash starts a transaction whose
// acknowledgement set includes a site that dies before answering; the view
// change must unblock it (protocols R and C wait on the dead site; protocol
// A never waited in the first place).
func TestInFlightCommitSurvivesCrash(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic"} {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 5, proto, failureCfg(proto), 23)
			// Crash site 4 immediately: it never acknowledges anything.
			tc.c.Schedule(0, func() { tc.c.Crash(4) })
			res := tc.runTxn(20*time.Millisecond, 0, false, nil, []message.KV{kv("x", "v")})
			tc.run(10 * time.Second)
			if !res.done || res.outcome != Committed {
				t.Fatalf("in-flight txn: done=%v outcome=%v reason=%v", res.done, res.outcome, res.reason)
			}
			if err := tc.rec.Check(); err != nil {
				t.Fatalf("serializability: %v", err)
			}
		})
	}
}

// TestAtomicCommitsBeforeViewChange shows protocol A's distinguishing
// resilience: with no acknowledgements to collect, a non-sequencer crash
// does not delay commitment at all — transactions finish long before the
// failure detector even fires.
func TestAtomicCommitsBeforeViewChange(t *testing.T) {
	cfg := failureCfg("atomic")
	cfg.FailureTimeout = 2 * time.Second // deliberately sluggish detector
	tc := newTestCluster(t, 5, "atomic", cfg, 25)
	tc.c.Schedule(0, func() { tc.c.Crash(4) })
	res := tc.runTxn(20*time.Millisecond, 0, false, nil, []message.KV{kv("x", "v")})
	start := tc.c.Now()
	tc.run(time.Second) // far less than the detector timeout
	_ = start
	if !res.done || res.outcome != Committed {
		t.Fatalf("atomic commit should not wait for failure detection: %+v", res)
	}
}

// TestMinorityPartitionRefusesWork verifies the primary-partition rule end
// to end: sites cut off from the majority must refuse new transactions
// rather than diverge.
func TestMinorityPartitionRefusesWork(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic"} {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 5, proto, failureCfg(proto), 27)
			tc.c.Schedule(500*time.Millisecond, func() {
				tc.c.Partition([]message.SiteID{0, 1}, []message.SiteID{2, 3, 4})
			})
			// Give the views time to settle, then try to write on both
			// sides.
			minority := tc.runTxn(4*time.Second, 0, false, nil, []message.KV{kv("m", "minority")})
			majority := tc.runTxn(4*time.Second, 3, false, nil, []message.KV{kv("M", "majority")})
			tc.run(12 * time.Second)
			if !majority.done || majority.outcome != Committed {
				t.Fatalf("majority txn: %+v", majority)
			}
			if minority.done && minority.outcome == Committed {
				t.Fatal("minority side committed an update during the partition")
			}
			// The minority side's write must not be visible anywhere on the
			// majority side.
			for _, i := range []int{2, 3, 4} {
				if _, ok := tc.engines[i].Store().Get("m"); ok {
					t.Fatalf("minority write leaked to majority site %d", i)
				}
			}
		})
	}
}

// TestViewChangeAbortsOrphans crashes a home site mid-transaction; the
// survivors must eventually release the orphan's locks so later conflicting
// transactions can proceed. Both write arms leave an orphan behind: under
// PerOpWrites site 3's write is broadcast as it is staged and site 3 never
// commits; on the shipped batch path site 3 commits, every survivor stages
// the batch, and site 3 dies before its commitment round can finish (the
// survivors' links to it are cut, so the acknowledgements — explicit for R,
// implicit for C — never reach it).
func TestViewChangeAbortsOrphans(t *testing.T) {
	for _, proto := range []string{"reliable", "causal"} {
		t.Run(proto, func(t *testing.T) {
			for _, perOp := range []bool{true, false} {
				arm := "batch"
				if perOp {
					arm = "per-op"
				}
				t.Run(arm, func(t *testing.T) {
					cfg := failureCfg(proto)
					cfg.PerOpWrites = perOp
					tc := newTestCluster(t, 4, proto, cfg, 29)
					if !perOp {
						tc.c.Schedule(5*time.Millisecond, func() {
							for _, s := range []message.SiteID{0, 1, 2} {
								tc.c.BlockLink(s, 3)
							}
						})
					}
					tc.c.Schedule(10*time.Millisecond, func() {
						e := tc.engines[3]
						tx := e.Begin(false)
						if err := e.Write(tx, "x", message.Value("orphan")); err != nil {
							t.Errorf("orphan write: %v", err)
						}
						if !perOp {
							e.Commit(tx, func(o Outcome, r AbortReason) {
								t.Errorf("orphan finished at its home: %v (%v)", o, r)
							})
						}
					})
					// Before the crash (and before any failure detector can
					// fire) every survivor holds the orphan's lock on x.
					tc.c.Schedule(100*time.Millisecond, func() {
						for i := 0; i < 3; i++ {
							if n := heldLocks(tc.engines[i]); n == 0 {
								t.Errorf("site %d holds no lock for the orphan before the crash", i)
							}
						}
					})
					tc.c.Schedule(120*time.Millisecond, func() { tc.c.Crash(3) })
					// A later writer on the same key from a survivor must
					// eventually commit once the view change cleans the orphan.
					late := tc.runTxn(3*time.Second, 0, false, nil, []message.KV{kv("x", "late")})
					tc.run(12 * time.Second)
					if !late.done || late.outcome != Committed {
						t.Fatalf("late writer blocked by orphan locks: %+v", late)
					}
					for _, i := range tc.survivors() {
						if v, _ := tc.engines[i].Store().Get("x"); string(v.Value) != "late" {
							t.Fatalf("site %d has %q", i, v.Value)
						}
						if n := heldLocks(tc.engines[i]); n != 0 {
							t.Errorf("site %d still holds %d locks", i, n)
						}
					}
				})
			}
		})
	}
}

// heldLocks returns the number of locks a protocol R or C site holds.
func heldLocks(e Engine) int {
	switch t := e.(type) {
	case *ReliableEngine:
		return t.Locks().Locks()
	case *CausalEngine:
		return t.Locks().Locks()
	}
	return 0
}

// TestWALRecoveryResume restarts an engine from its write-ahead log and
// verifies the recovered state serves reads and accepts new commits with a
// resumed commit index.
func TestWALRecoveryResume(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "baseline"} {
		t.Run(proto, func(t *testing.T) {
			dir := t.TempDir()
			wal, err := storage.OpenSegments(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfgFor(proto)
			// Only site 0 logs; the others are throwaway peers.
			tc := newTestClusterWith(t, 3, proto, cfg, 55, func(site int, c Config) Config {
				if site == 0 {
					c.WAL = wal
				}
				return c
			})
			w1 := tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("a", "1")})
			w2 := tc.runTxn(100*time.Millisecond, 0, false, nil, []message.KV{kv("b", "2"), kv("a", "3")})
			tc.run(5 * time.Second)
			if !w1.done || !w2.done || w1.outcome != Committed || w2.outcome != Committed {
				t.Fatalf("setup txns failed: %+v %+v", w1, w2)
			}

			// "Restart": recover a fresh store from site 0's log and boot a
			// new single-site engine around it.
			if err := wal.Close(); err != nil {
				t.Fatal(err)
			}
			recovered, rwal, _, err := checkpoint.Recover(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer rwal.Close()
			if got, _ := recovered.Get("a"); string(got.Value) != "3" {
				t.Fatalf("recovered a=%q", got.Value)
			}
			cfg2 := cfgFor(proto)
			cfg2.InitialStore = recovered
			tc2 := newTestClusterWith(t, 1, proto, cfg2, 56, nil)
			res := tc2.runTxn(time.Millisecond, 0, false, keys("a"), []message.KV{kv("a", "4")})
			tc2.run(5 * time.Second)
			if !res.done || res.outcome != Committed {
				t.Fatalf("post-recovery txn: %+v", res)
			}
			if string(res.vals["a"]) != "3" {
				t.Fatalf("post-recovery read a=%q, want 3", res.vals["a"])
			}
			if got, _ := tc2.engines[0].Store().Get("a"); string(got.Value) != "4" {
				t.Fatalf("post-recovery store a=%q", got.Value)
			}
		})
	}
}

// TestAtomicPartitionHealResync runs the full rejoin path at the engine
// level: a site is partitioned away, the majority commits on, the partition
// heals, and the returning site resynchronizes by state transfer plus gap
// repair until it serves reads of the post-partition state.
func TestAtomicPartitionHealResync(t *testing.T) {
	// Deliberately NOT piggybacking writes: state transfer must carry the
	// broadcast-stack frontiers (StackSync) for the causally disseminated
	// writes to resume at the healed site.
	tc := newTestCluster(t, 5, "atomic", failureCfg("atomic"), 31)
	pre := tc.runTxn(100*time.Millisecond, 0, false, nil, []message.KV{kv("epoch", "pre")})
	tc.c.Schedule(500*time.Millisecond, func() {
		tc.c.Partition([]message.SiteID{0}, []message.SiteID{1, 2, 3, 4})
	})
	during := tc.runTxn(3*time.Second, 2, false, nil, []message.KV{kv("epoch", "during")})
	tc.c.Schedule(5*time.Second, func() { tc.c.Heal() })
	// Give detector, view change, state transfer, and gap repair time.
	post := tc.runTxn(9*time.Second, 0, false, keys("epoch"), []message.KV{kv("epoch", "post")})
	tc.run(15 * time.Second)
	if !pre.done || pre.outcome != Committed {
		t.Fatalf("pre txn: %+v", pre)
	}
	if !during.done || during.outcome != Committed {
		t.Fatalf("during txn: %+v", during)
	}
	if !post.done || post.outcome != Committed {
		t.Fatalf("post txn at healed site: done=%v outcome=%v reason=%v readErr=%v writeErr=%v",
			post.done, post.outcome, post.reason, post.readErr, post.writeErr)
	}
	if string(post.vals["epoch"]) != "during" {
		t.Fatalf("healed site read %q before its own write, want \"during\"", post.vals["epoch"])
	}
	for i, e := range tc.engines {
		if v, _ := e.Store().Get("epoch"); string(v.Value) != "post" {
			t.Fatalf("site %d converged to %q", i, v.Value)
		}
	}
	if err := tc.rec.Check(); err != nil {
		t.Fatalf("serializability: %v", err)
	}
}

// TestAtomicRestartResync kills a site outright, commits at the survivors
// while it is down, then restarts the site with a fresh engine (empty
// store, zeroed broadcast stack). The restarted site must recover the full
// state transfer — store contents, causal/FIFO frontiers, and its own
// resumed send sequences — so that (a) commits made after its resync apply
// at it, and (b) its own new broadcasts are accepted by peers instead of
// being discarded as replays of its pre-crash sequence numbers.
//
// Every donor path is exercised: with a shrunken retention window the
// from-index retransmission request misses and the donor answers with a
// snapshot directly; with the default window the donor retransmits the
// ordered stream, which on the shipped path carries every write and so
// catches the site up alone. Under the paper's causal-write arm the
// retransmitted commit requests reference causally disseminated writes the
// cluster consumed long ago — the restarted site must detect that
// certification stall and escalate to a snapshot itself.
func TestAtomicRestartResync(t *testing.T) {
	t.Run("retention-miss", func(t *testing.T) { testAtomicRestartResync(t, 4, false) })
	t.Run("within-retention", func(t *testing.T) { testAtomicRestartResync(t, 0, true) })
	t.Run("gap-repair", func(t *testing.T) { testAtomicRestartResync(t, 0, false) })
}

func testAtomicRestartResync(t *testing.T, retention int, causalWrites bool) {
	cfg := failureCfg("atomic")
	cfg.PerOpWrites = causalWrites
	tc := newTestCluster(t, 3, "atomic", cfg, 37)
	for _, e := range tc.engines {
		if retention > 0 {
			e.(*AtomicEngine).stack.HistoryRetention = retention
		}
	}
	pre1 := tc.runTxn(100*time.Millisecond, 0, false, nil, []message.KV{kv("epoch", "pre")})
	// The doomed site originates a broadcast first, so its send sequences
	// are nonzero cluster-wide and a naive restart would reuse them.
	pre2 := tc.runTxn(200*time.Millisecond, 2, false, nil, []message.KV{kv("pre2", "from-2")})
	tc.c.Schedule(500*time.Millisecond, func() { tc.c.Crash(2) })
	// More commits than the retention window while the site is down.
	var during []*txResult
	for i := 0; i < 6; i++ {
		key := message.Key(fmt.Sprintf("k%d", i))
		during = append(during, tc.runTxn(time.Second+time.Duration(i)*300*time.Millisecond,
			i%2, false, nil, []message.KV{{Key: key, Value: message.Value("v")}}))
	}
	// Restart: fresh engine, fresh stack; state arrives via the protocol's
	// own gap probe — retransmission, or a snapshot transfer after a
	// retransmission miss or a certification stall.
	tc.c.Schedule(4*time.Second, func() {
		tc.c.Recover(2)
		rcfg := cfg
		rcfg.Recorder = tc.rec
		fresh := NewAtomic(tc.c.Runtime(2), rcfg)
		if retention > 0 {
			fresh.stack.HistoryRetention = retention
		}
		tc.engines[2] = fresh
		tc.c.Bind(2, fresh)
		fresh.Start()
	})
	// A commit at a survivor after the restart: its atomic traffic is what
	// exposes the restarted site's gap, and its effects must reach site 2.
	post := tc.runTxn(7*time.Second, 0, false, nil, []message.KV{kv("epoch", "post")})
	// A commit originated by the restarted site itself: only possible once
	// its send sequences resume past its pre-crash numbering.
	from2 := tc.runTxn(10*time.Second, 2, false, keys("epoch"), []message.KV{kv("from2", "hello")})
	tc.run(16 * time.Second)

	for _, r := range []*txResult{pre1, pre2, post} {
		if !r.done || r.outcome != Committed {
			t.Fatalf("txn at site %d: done=%v outcome=%v reason=%v", r.site, r.done, r.outcome, r.reason)
		}
	}
	for i, r := range during {
		if !r.done || r.outcome != Committed {
			t.Fatalf("during[%d]: done=%v outcome=%v reason=%v", i, r.done, r.outcome, r.reason)
		}
	}
	if !from2.done || from2.outcome != Committed {
		t.Fatalf("restarted site's own txn: done=%v outcome=%v reason=%v readErr=%v writeErr=%v",
			from2.done, from2.outcome, from2.reason, from2.readErr, from2.writeErr)
	}
	if string(from2.vals["epoch"]) != "post" {
		t.Fatalf("restarted site read epoch=%q, want \"post\"", from2.vals["epoch"])
	}
	// Full convergence, including the restarted site's own post-restart
	// write applying everywhere.
	allKeys := []string{"epoch", "pre2", "from2", "k0", "k1", "k2", "k3", "k4", "k5"}
	for _, key := range allKeys {
		ref, _ := tc.engines[0].Store().Get(message.Key(key))
		for i := 1; i < 3; i++ {
			got, _ := tc.engines[i].Store().Get(message.Key(key))
			if string(got.Value) != string(ref.Value) {
				t.Fatalf("site %d diverges on %q: %q vs %q", i, key, got.Value, ref.Value)
			}
		}
	}
	if v, _ := tc.engines[2].Store().Get("from2"); string(v.Value) != "hello" {
		t.Fatalf("restarted site's own write lost: from2=%q", v.Value)
	}
	if err := tc.rec.Check(); err != nil {
		t.Fatalf("serializability: %v", err)
	}
}

// TestAtomicSequencerCrashFailover kills the total-order sequencer itself
// (the lowest view member). The view change elects the next-lowest site,
// which re-assigns any orphaned orderings; commits must resume.
func TestAtomicSequencerCrashFailover(t *testing.T) {
	cfg := failureCfg("atomic")
	tc := newTestCluster(t, 5, "atomic", cfg, 33)
	pre := tc.runTxn(100*time.Millisecond, 2, false, nil, []message.KV{kv("a", "pre")})
	// Crash site 0 — the sequencer — and submit work right away (these may
	// have their commit requests orphaned until the new sequencer takes
	// over at the view change).
	tc.c.Schedule(time.Second, func() { tc.c.Crash(0) })
	inflight := tc.runTxn(1050*time.Millisecond, 1, false, nil, []message.KV{kv("b", "inflight")})
	post := tc.runTxn(4*time.Second, 3, false, nil, []message.KV{kv("c", "post")})
	tc.run(15 * time.Second)
	if !pre.done || pre.outcome != Committed {
		t.Fatalf("pre: %+v", pre)
	}
	if !inflight.done || inflight.outcome != Committed {
		t.Fatalf("in-flight txn across sequencer crash: done=%v outcome=%v reason=%v",
			inflight.done, inflight.outcome, inflight.reason)
	}
	if !post.done || post.outcome != Committed {
		t.Fatalf("post-failover txn: %+v", post)
	}
	// Survivors agree on everything.
	for _, key := range []string{"a", "b", "c"} {
		ref, _ := tc.engines[1].Store().Get(message.Key(key))
		for _, i := range tc.survivors() {
			got, _ := tc.engines[i].Store().Get(message.Key(key))
			if string(got.Value) != string(ref.Value) {
				t.Fatalf("site %d diverges on %q: %q vs %q", i, key, got.Value, ref.Value)
			}
		}
	}
	if err := tc.rec.Check(); err != nil {
		t.Fatalf("serializability: %v", err)
	}
}

// TestCausalHeartbeatSilentOutsidePrimary pins the heartbeat's partition
// behaviour: a site excluded from the primary partition must stop
// broadcasting CausalNull (its implicit acks are meaningless outside the
// view, and on a real network the traffic would spam unreachable peers),
// but its timer chain must keep running so heartbeats resume when the view
// readmits it.
func TestCausalHeartbeatSilentOutsidePrimary(t *testing.T) {
	tc := newTestCluster(t, 3, "causal", failureCfg("causal"), 33)
	// Crash the other two sites: site 0 survives but is a minority of one,
	// so the view change excludes it from the primary partition.
	tc.c.Schedule(500*time.Millisecond, func() {
		tc.c.Crash(1)
		tc.c.Crash(2)
	})
	// Let the failure detector fire and the view settle.
	tc.run(2 * time.Second)
	before := tc.c.Stats().ByPayload[message.KindCausalNull]
	tc.run(2 * time.Second)
	after := tc.c.Stats().ByPayload[message.KindCausalNull]
	if after != before {
		t.Fatalf("excluded site broadcast %d CausalNull heartbeats outside the primary partition", after-before)
	}
	// Readmission: restart the peers (fresh engines, the crash-recovery
	// pattern); once the view reforms around site 0, its kept timer chain
	// must resume heartbeating without any external kick.
	for _, i := range []message.SiteID{1, 2} {
		i := i
		tc.c.Schedule(0, func() {
			tc.c.Recover(i)
			rcfg := failureCfg("causal")
			rcfg.Recorder = tc.rec
			fresh := NewCausal(tc.c.Runtime(i), rcfg)
			tc.engines[i] = fresh
			tc.c.Bind(i, fresh)
			fresh.Start()
		})
	}
	tc.run(4 * time.Second)
	rejoin := tc.c.Stats().ByPayload[message.KindCausalNull]
	if rejoin == after {
		t.Fatal("heartbeats did not resume after the site rejoined the primary partition")
	}
}

// TestFailureHandlingOneKnob: Config.FailureInterval alone switches failure
// handling for every engine. Off, no site heartbeats. On, every engine but
// quorum (which needs none) heartbeats and suspects a crashed site; R, C, A
// and the baseline then install a view without it, while the sharded
// engine's reaction is coordinator failover, with no view manager at all.
func TestFailureHandlingOneKnob(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic", "baseline", "quorum", "sharded"} {
		t.Run(proto, func(t *testing.T) {
			cfg := Config{}
			if proto == "sharded" {
				cfg = shardedCfg(2, 2)
			}
			off := newTestCluster(t, 4, proto, cfg, 41)
			off.run(2 * time.Second)
			if n := off.c.Stats().ByKind[message.KindHeartbeat]; n != 0 {
				t.Fatalf("FailureInterval 0: %d heartbeats sent", n)
			}
			for i, e := range off.engines {
				if s := e.Suspects(); s != nil {
					t.Fatalf("FailureInterval 0: site %d answers Suspects() = %v, want nil", i, s)
				}
			}

			cfg.FailureInterval = 30 * time.Millisecond
			cfg.FailureTimeout = 150 * time.Millisecond
			tc := newTestCluster(t, 4, proto, cfg, 41)
			tc.run(2 * time.Second)
			hb := tc.c.Stats().ByKind[message.KindHeartbeat]
			if proto == "quorum" {
				if hb != 0 {
					t.Fatalf("quorum sent %d heartbeats", hb)
				}
			} else if hb == 0 {
				t.Fatal("no heartbeats with FailureInterval set")
			}
			tc.c.Crash(2)
			tc.run(2 * time.Second)
			for _, i := range tc.survivors() {
				e := tc.engines[i]
				if proto == "quorum" {
					if s := e.Suspects(); s != nil {
						t.Fatalf("quorum site %d suspects %v", i, s)
					}
					continue
				}
				if s := e.Suspects(); !slices.Equal(s, []message.SiteID{2}) {
					t.Fatalf("site %d suspects %v, want [2]", i, s)
				}
				mem := e.(interface{ Membership() *membership.Manager }).Membership()
				switch {
				case proto == "sharded" && mem != nil:
					t.Fatalf("sharded site %d built a view manager", i)
				case proto != "sharded" && slices.Contains(mem.Members(), 2):
					t.Fatalf("site %d view %v still holds the crashed site", i, mem.View())
				}
			}
		})
	}
}
