package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/message"
	"repro/internal/netsim"
	"repro/internal/sgraph"
	"repro/internal/sim"
)

// protoNames lists the engines under test.
var protoNames = []string{"reliable", "causal", "atomic", "baseline"}

// testCluster hosts one engine per site over the simulator.
type testCluster struct {
	t       *testing.T
	c       *sim.Cluster
	rec     *sgraph.Recorder
	engines []Engine
}

func newTestCluster(t *testing.T, n int, proto string, cfg Config, seed int64) *testCluster {
	t.Helper()
	return newTestClusterWith(t, n, proto, cfg, seed, nil)
}

// newTestClusterWith allows per-site config customization (e.g. a WAL on
// one site only).
func newTestClusterWith(t *testing.T, n int, proto string, cfg Config, seed int64, customize func(int, Config) Config) *testCluster {
	t.Helper()
	link := netsim.Uniform{Min: 500 * time.Microsecond, Max: 3 * time.Millisecond}
	c := sim.NewCluster(n, link, seed)
	rec := sgraph.NewRecorder()
	cfg.Recorder = rec
	tc := &testCluster{t: t, c: c, rec: rec}
	for i := 0; i < n; i++ {
		rt := c.Runtime(message.SiteID(i))
		siteCfg := cfg
		if customize != nil {
			siteCfg = customize(i, cfg)
		}
		var e Engine
		switch proto {
		case "reliable":
			e = NewReliable(rt, siteCfg)
		case "causal":
			e = NewCausal(rt, siteCfg)
		case "atomic":
			e = NewAtomic(rt, siteCfg)
		case "baseline":
			e = NewBaseline(rt, siteCfg)
		case "quorum":
			e = NewQuorum(rt, siteCfg)
		case "sharded":
			se, err := NewSharded(rt, siteCfg)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			e = se
		default:
			t.Fatalf("unknown protocol %q", proto)
		}
		tc.engines = append(tc.engines, e)
		c.Bind(message.SiteID(i), e)
	}
	c.Start()
	return tc
}

func (tc *testCluster) run(d time.Duration) {
	tc.t.Helper()
	if _, err := tc.c.Run(tc.c.Now() + d); err != nil {
		tc.t.Fatal(err)
	}
}

// txResult captures a driven transaction's fate.
type txResult struct {
	site     int
	done     bool
	outcome  Outcome
	reason   AbortReason
	readErr  error
	writeErr error
	vals     map[message.Key]message.Value
}

// runTxn schedules a transaction at the given site: all reads (in order),
// then all writes, then commit. It returns the result captured as the
// simulation progresses.
func (tc *testCluster) runTxn(after time.Duration, site int, ro bool, reads []message.Key, writes []message.KV) *txResult {
	res := &txResult{site: site, vals: make(map[message.Key]message.Value)}
	tc.c.Schedule(after, func() {
		e := tc.engines[site]
		tx := e.Begin(ro)
		var step func(i int)
		step = func(i int) {
			if i < len(reads) {
				key := reads[i]
				e.Read(tx, key, func(v message.Value, err error) {
					if err != nil {
						res.readErr = err
						e.Abort(tx)
						res.done = true
						res.outcome = Aborted
						o, r := tx.Outcome()
						if o != 0 {
							res.outcome, res.reason = o, r
						}
						return
					}
					res.vals[key] = v
					step(i + 1)
				})
				return
			}
			for _, w := range writes {
				if err := e.Write(tx, w.Key, w.Value); err != nil {
					// The write was refused (not-primary) or the transaction
					// died mid-pipeline; either way it must not fall through
					// to an empty commit.
					res.writeErr = err
					e.Abort(tx)
					res.done = true
					res.outcome = Aborted
					if o, r := tx.Outcome(); o != 0 {
						res.outcome, res.reason = o, r
					}
					return
				}
			}
			e.Commit(tx, func(o Outcome, r AbortReason) {
				res.done = true
				res.outcome = o
				res.reason = r
			})
		}
		step(0)
	})
	return res
}

// checkInvariants verifies the cluster's global safety properties after a
// run: 1SR + replica consistency, converged stores, and no leaked locks or
// replica records.
func (tc *testCluster) checkInvariants() {
	tc.t.Helper()
	if err := tc.rec.Check(); err != nil {
		tc.t.Fatalf("serializability: %v", err)
	}
	// Store convergence: every key's latest value identical across sites.
	ref := tc.engines[0].Store()
	orders, err := tc.rec.VersionOrders()
	if err != nil {
		tc.t.Fatalf("version orders: %v", err)
	}
	for key := range orders {
		want, _ := ref.Get(key)
		for i, e := range tc.engines[1:] {
			got, _ := e.Store().Get(key)
			if string(got.Value) != string(want.Value) || got.Writer != want.Writer {
				tc.t.Fatalf("store divergence on %q: site 0 has %v=%q, site %d has %v=%q",
					key, want.Writer, want.Value, i+1, got.Writer, got.Value)
			}
		}
	}
}

func (tc *testCluster) checkNoLeaks() {
	tc.t.Helper()
	for i, e := range tc.engines {
		var locks, remote int
		switch t := e.(type) {
		case *ReliableEngine:
			locks, remote = t.Locks().Locks(), t.PendingRemote()
		case *CausalEngine:
			locks, remote = t.Locks().Locks(), t.PendingRemote()
		case *AtomicEngine:
			locks, remote = t.Locks().Locks(), t.PendingRemote()
		case *BaselineEngine:
			locks, remote = t.Locks().Locks(), t.PendingRemote()
		}
		if locks != 0 {
			tc.t.Errorf("site %d leaked %d locks", i, locks)
		}
		if remote != 0 {
			tc.t.Errorf("site %d leaked %d remote records", i, remote)
		}
	}
}

func kv(k, v string) message.KV {
	return message.KV{Key: message.Key(k), Value: message.Value(v)}
}

func keys(ks ...string) []message.Key {
	out := make([]message.Key, len(ks))
	for i, k := range ks {
		out[i] = message.Key(k)
	}
	return out
}

func cfgFor(proto string) Config {
	cfg := Config{}
	if proto == "causal" {
		cfg.CausalHeartbeat = 20 * time.Millisecond
	}
	return cfg
}

func TestSingleWriterPropagates(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 1)
			res := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "v1")})
			tc.run(2 * time.Second)
			if !res.done || res.outcome != Committed {
				t.Fatalf("txn not committed: done=%v outcome=%v reason=%v", res.done, res.outcome, res.reason)
			}
			for i, e := range tc.engines {
				got, ok := e.Store().Get("x")
				if !ok || string(got.Value) != "v1" {
					t.Fatalf("site %d: x = %q ok=%v", i, got.Value, ok)
				}
			}
			tc.checkInvariants()
			tc.checkNoLeaks()
		})
	}
}

func TestReadSeesCommittedValue(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 2)
			w := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "hello")})
			r := tc.runTxn(time.Second, 2, true, keys("x"), nil)
			tc.run(3 * time.Second)
			if !w.done || w.outcome != Committed {
				t.Fatalf("writer: %+v", w)
			}
			if !r.done || r.outcome != Committed {
				t.Fatalf("reader: %+v", r)
			}
			if string(r.vals["x"]) != "hello" {
				t.Fatalf("reader saw %q", r.vals["x"])
			}
			tc.checkInvariants()
		})
	}
}

func TestConcurrentConflictingWriters(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 3)
			a := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "A")})
			b := tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("x", "B")})
			tc.run(3 * time.Second)
			if !a.done || !b.done {
				t.Fatalf("not done: a=%v b=%v", a.done, b.done)
			}
			committed := 0
			if a.outcome == Committed {
				committed++
			}
			if b.outcome == Committed {
				committed++
			}
			switch proto {
			case "atomic":
				// Certification commits exactly the first in total order.
				if committed != 1 {
					t.Fatalf("atomic committed %d, want 1", committed)
				}
			case "baseline":
				// Blocking locks let both serialize (wound-wait may still
				// kill the younger, depending on timing).
				if committed < 1 {
					t.Fatalf("baseline committed %d, want >=1", committed)
				}
			default:
				// Never-wait negative acks can abort both under symmetric
				// delivery races, but never commit both.
				if committed > 1 {
					t.Fatalf("%s committed %d, want <=1", proto, committed)
				}
			}
			tc.checkInvariants()
			tc.checkNoLeaks()
		})
	}
}

// TestRandomWorkload drives a mixed random workload through every protocol
// and checks the global invariants: one-copy serializability, replica
// consistency, convergence, and no state leaks.
func TestRandomWorkload(t *testing.T) {
	const (
		nSites = 4
		nTxns  = 150
		nKeys  = 8
	)
	for _, proto := range protoNames {
		for _, seed := range []int64{42, 1042, 2042} {
			t.Run(fmt.Sprintf("%s/seed=%d", proto, seed), func(t *testing.T) {
				tc := newTestCluster(t, nSites, proto, cfgFor(proto), seed)
				r := rand.New(rand.NewSource(seed * 7))
				var results []*txResult
				for i := 0; i < nTxns; i++ {
					site := r.Intn(nSites)
					at := time.Duration(r.Intn(8000)) * time.Millisecond
					ro := r.Float64() < 0.3
					var rd []message.Key
					for k := 0; k < 1+r.Intn(2); k++ {
						rd = append(rd, message.Key(fmt.Sprintf("k%d", r.Intn(nKeys))))
					}
					var wr []message.KV
					if !ro {
						for k := 0; k < 1+r.Intn(2); k++ {
							wr = append(wr, kv(fmt.Sprintf("k%d", r.Intn(nKeys)), fmt.Sprintf("t%d.%d", site, i)))
						}
					}
					results = append(results, tc.runTxn(at, site, ro, rd, wr))
				}
				tc.run(60 * time.Second)
				done, committed := 0, 0
				for _, res := range results {
					if res.done {
						done++
						if res.outcome == Committed {
							committed++
						}
					}
				}
				if done != nTxns {
					t.Fatalf("%d of %d transactions unfinished", nTxns-done, nTxns)
				}
				if committed == 0 {
					t.Fatal("nothing committed")
				}
				t.Logf("%s: committed %d/%d", proto, committed, nTxns)
				tc.checkInvariants()
				tc.checkNoLeaks()
			})
		}
	}
}

// TestReadOnlyNeverAborts floods hot keys with writers while read-only
// transactions stream in: the paper's guarantee says the broadcast
// protocols never abort a read-only transaction.
func TestReadOnlyNeverAborts(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic"} {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 4)
			r := rand.New(rand.NewSource(11))
			var ros []*txResult
			for i := 0; i < 60; i++ {
				at := time.Duration(r.Intn(4000)) * time.Millisecond
				site := r.Intn(3)
				if i%2 == 0 {
					tc.runTxn(at, site, false, nil, []message.KV{kv("hot", fmt.Sprintf("w%d", i))})
					continue
				}
				ros = append(ros, tc.runTxn(at, site, true, keys("hot"), nil))
			}
			tc.run(30 * time.Second)
			for i, res := range ros {
				if !res.done {
					t.Fatalf("read-only txn %d unfinished", i)
				}
				if res.outcome != Committed {
					t.Fatalf("read-only txn %d aborted: %v", i, res.reason)
				}
			}
			tc.checkInvariants()
		})
	}
}

// TestNoDeadlockUnderContention runs the broadcast protocols under heavy
// contention while periodically asserting the lock tables are cycle-free —
// the paper's deadlock-prevention claim.
func TestNoDeadlockUnderContention(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic"} {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 4, proto, cfgFor(proto), 5)
			r := rand.New(rand.NewSource(13))
			for i := 0; i < 80; i++ {
				at := time.Duration(r.Intn(3000)) * time.Millisecond
				site := r.Intn(4)
				key1 := fmt.Sprintf("k%d", r.Intn(3))
				key2 := fmt.Sprintf("k%d", r.Intn(3))
				tc.runTxn(at, site, false, keys(key1), []message.KV{kv(key2, "v")})
			}
			for ms := 100; ms < 5000; ms += 100 {
				ms := ms
				tc.c.Schedule(time.Duration(ms)*time.Millisecond, func() {
					for i, e := range tc.engines {
						var mgr interface{ DetectDeadlock() []message.TxnID }
						switch te := e.(type) {
						case *ReliableEngine:
							mgr = te.Locks()
						case *CausalEngine:
							mgr = te.Locks()
						case *AtomicEngine:
							mgr = te.Locks()
						}
						if c := mgr.DetectDeadlock(); c != nil {
							t.Errorf("site %d deadlock at %dms: %v", i, ms, c)
						}
					}
				})
			}
			tc.run(30 * time.Second)
			tc.checkInvariants()
		})
	}
}

// TestCausalImplicitAckStall demonstrates the paper's stated drawback of
// protocol C — silent peers stall commitment — and the heartbeat fix.
func TestCausalImplicitAckStall(t *testing.T) {
	// Without heartbeats the lone writer's commit cannot gather implicit
	// acknowledgements from silent peers.
	tc := newTestCluster(t, 3, "causal", Config{}, 6)
	res := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "v")})
	tc.run(10 * time.Second)
	if res.done {
		t.Fatalf("commit should stall without heartbeats, got %v", res.outcome)
	}
	// Traffic from the peers releases it: any causal broadcast carries the
	// implicit acknowledgement.
	w1 := tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("y", "v")})
	w2 := tc.runTxn(time.Millisecond, 2, false, nil, []message.KV{kv("z", "v")})
	tc.run(10 * time.Second)
	if !res.done || res.outcome != Committed {
		t.Fatalf("peer traffic should unblock the commit: done=%v outcome=%v", res.done, res.outcome)
	}
	// The peers' own commits now stall in turn: site 0 fell silent again
	// after its decision broadcast, so its implicit acknowledgements for w1
	// and w2 never arrive — the stall cascades, which is exactly why the
	// paper flags infrequent broadcasters as protocol C's weakness.
	if w1.done || w2.done {
		t.Fatalf("peer writers should stall without heartbeats: w1=%v w2=%v", w1.done, w2.done)
	}

	// With heartbeats enabled the same lone writer commits promptly.
	tc2 := newTestCluster(t, 3, "causal", Config{CausalHeartbeat: 20 * time.Millisecond}, 6)
	res2 := tc2.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "v")})
	tc2.run(2 * time.Second)
	if !res2.done || res2.outcome != Committed {
		t.Fatalf("heartbeat commit failed: done=%v outcome=%v", res2.done, res2.outcome)
	}
}

// TestAtomicCertificationAbort forces a stale read: the update transaction
// must abort at certification while the conflicting writer commits.
func TestAtomicCertificationAbort(t *testing.T) {
	tc := newTestCluster(t, 3, "atomic", Config{}, 7)
	var stale *txResult
	// T1 begins and reads x early...
	tc.c.Schedule(time.Millisecond, func() {
		e := tc.engines[0]
		tx := e.Begin(false)
		e.Read(tx, "x", func(message.Value, error) {})
		// ...but only writes and commits two seconds later.
		tc.c.Schedule(2*time.Second, func() {
			if err := e.Write(tx, "x", message.Value("stale")); err != nil {
				t.Errorf("write: %v", err)
			}
			stale = &txResult{}
			e.Commit(tx, func(o Outcome, r AbortReason) {
				stale.done, stale.outcome, stale.reason = true, o, r
			})
		})
	})
	// A competing writer updates x in between.
	fresh := tc.runTxn(500*time.Millisecond, 1, false, nil, []message.KV{kv("x", "fresh")})
	tc.run(10 * time.Second)
	if !fresh.done || fresh.outcome != Committed {
		t.Fatalf("fresh writer: %+v", fresh)
	}
	if stale == nil || !stale.done || stale.outcome != Aborted || stale.reason != ReasonCertification {
		t.Fatalf("stale writer should abort at certification: %+v", stale)
	}
	for i, e := range tc.engines {
		if got, _ := e.Store().Get("x"); string(got.Value) != "fresh" {
			t.Fatalf("site %d has %q", i, got.Value)
		}
	}
	tc.checkInvariants()
}

// TestAtomicPiggybackAndIsis exercises protocol A's configuration axes: the
// shipped piggybacked writes versus the paper's causal write dissemination,
// and the ISIS total-order variant.
func TestAtomicPiggybackAndIsis(t *testing.T) {
	cfgs := map[string]Config{
		"piggyback": {},
		"isis":      {AtomicMode: broadcast.AtomicIsis, PerOpWrites: true},
		"both":      {AtomicMode: broadcast.AtomicIsis},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, 4, "atomic", cfg, 8)
			r := rand.New(rand.NewSource(17))
			var results []*txResult
			for i := 0; i < 60; i++ {
				at := time.Duration(r.Intn(3000)) * time.Millisecond
				site := r.Intn(4)
				results = append(results, tc.runTxn(at, site, false,
					keys(fmt.Sprintf("k%d", r.Intn(4))),
					[]message.KV{kv(fmt.Sprintf("k%d", r.Intn(4)), fmt.Sprintf("v%d", i))}))
			}
			tc.run(30 * time.Second)
			for i, res := range results {
				if !res.done {
					t.Fatalf("txn %d unfinished", i)
				}
			}
			tc.checkInvariants()
			tc.checkNoLeaks()
		})
	}
}

// TestBaselineWoundWaitResolvesDeadlock constructs the classic crossing
// pattern that deadlocks plain 2PL; wound-wait must kill the younger
// transaction and let the older commit.
func TestBaselineWoundWaitResolvesDeadlock(t *testing.T) {
	tc := newTestCluster(t, 2, "baseline", Config{}, 9)
	// Older transaction (begun first) writes x then y; younger writes y
	// then x, interleaved so both hold their first lock before requesting
	// the second.
	older := &txResult{}
	younger := &txResult{}
	tc.c.Schedule(time.Millisecond, func() {
		e := tc.engines[0]
		tx := e.Begin(false)
		if err := e.Write(tx, "x", message.Value("old")); err != nil {
			t.Errorf("older write x: %v", err)
		}
		tc.c.Schedule(500*time.Millisecond, func() {
			_ = e.Write(tx, "y", message.Value("old"))
			e.Commit(tx, func(o Outcome, r AbortReason) {
				older.done, older.outcome, older.reason = true, o, r
			})
		})
	})
	tc.c.Schedule(2*time.Millisecond, func() {
		e := tc.engines[1]
		tx := e.Begin(false)
		if err := e.Write(tx, "y", message.Value("young")); err != nil {
			t.Errorf("younger write y: %v", err)
		}
		tc.c.Schedule(500*time.Millisecond, func() {
			_ = e.Write(tx, "x", message.Value("young"))
			e.Commit(tx, func(o Outcome, r AbortReason) {
				younger.done, younger.outcome, younger.reason = true, o, r
			})
		})
	})
	tc.run(20 * time.Second)
	if !older.done || older.outcome != Committed {
		t.Fatalf("older: %+v", older)
	}
	if !younger.done || younger.outcome != Aborted || younger.reason != ReasonWounded {
		t.Fatalf("younger should be wounded: %+v", younger)
	}
	tc.checkInvariants()
	tc.checkNoLeaks()
}

// TestAPIErrors covers the client-contract errors shared by all engines.
func TestAPIErrors(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 2, proto, cfgFor(proto), 10)
			tc.c.Schedule(time.Millisecond, func() {
				e := tc.engines[0]
				// Write on read-only.
				ro := e.Begin(true)
				if err := e.Write(ro, "x", nil); err != ErrReadOnly {
					t.Errorf("read-only write: %v", err)
				}
				// Read after write.
				tx := e.Begin(false)
				if err := e.Write(tx, "x", message.Value("v")); err != nil {
					t.Errorf("write: %v", err)
				}
				e.Read(tx, "y", func(_ message.Value, err error) {
					if err != ErrReadAfterWrite {
						t.Errorf("read-after-write: %v", err)
					}
				})
				e.Abort(tx)
				// Operations after completion.
				if err := e.Write(tx, "z", nil); err != ErrTxnDone {
					t.Errorf("write after done: %v", err)
				}
				e.Commit(tx, func(o Outcome, _ AbortReason) {
					if o != Aborted {
						t.Errorf("commit after abort: %v", o)
					}
				})
			})
			tc.run(5 * time.Second)
		})
	}
}

// TestStatsAccounting sanity-checks the counters every engine maintains.
func TestStatsAccounting(t *testing.T) {
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 12)
			tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("a", "1")})
			tc.runTxn(100*time.Millisecond, 0, true, keys("a"), nil)
			tc.run(5 * time.Second)
			st := tc.engines[0].Stats()
			if st.Begun != 2 {
				t.Errorf("begun = %d", st.Begun)
			}
			if st.Committed != 1 {
				t.Errorf("committed = %d", st.Committed)
			}
			if st.ReadOnlyCommitted != 1 {
				t.Errorf("read-only committed = %d", st.ReadOnlyCommitted)
			}
			if st.CommitLatency.Count() != 1 {
				t.Errorf("latency samples = %d", st.CommitLatency.Count())
			}
		})
	}
}

// TestBatchedWrites runs both write arms of protocols R and C under a
// contended random workload: per-operation dissemination
// (Config.PerOpWrites), the shipped one-batch-at-commit path, and a mixed
// cluster whose site 0 alone runs per-operation, as during a rolling
// upgrade. Receivers apply whichever form arrives, so all global
// invariants must hold in every arm.
func TestBatchedWrites(t *testing.T) {
	arms := []struct {
		name  string
		perOp func(site int) bool
	}{
		{"per-op", func(int) bool { return true }},
		{"batch", func(int) bool { return false }},
		{"mixed", func(site int) bool { return site == 0 }},
	}
	for _, proto := range []string{"reliable", "causal"} {
		t.Run(proto, func(t *testing.T) {
			for _, arm := range arms {
				t.Run(arm.name, func(t *testing.T) {
					tc := newTestClusterWith(t, 4, proto, cfgFor(proto), 77, func(i int, c Config) Config {
						c.PerOpWrites = arm.perOp(i)
						return c
					})
					r := rand.New(rand.NewSource(8))
					var results []*txResult
					for i := 0; i < 120; i++ {
						site := r.Intn(4)
						at := time.Duration(r.Intn(6000)) * time.Millisecond
						ro := r.Float64() < 0.25
						var rd []message.Key
						rd = append(rd, message.Key(fmt.Sprintf("k%d", r.Intn(8))))
						var wr []message.KV
						if !ro {
							for k := 0; k < 1+r.Intn(3); k++ {
								wr = append(wr, kv(fmt.Sprintf("k%d", r.Intn(8)), fmt.Sprintf("b%d", i)))
							}
						}
						results = append(results, tc.runTxn(at, site, ro, rd, wr))
					}
					tc.run(60 * time.Second)
					committed := 0
					for i, res := range results {
						if !res.done {
							t.Fatalf("txn %d unfinished", i)
						}
						if res.outcome == Committed {
							committed++
						}
					}
					if committed == 0 {
						t.Fatal("nothing committed")
					}
					tc.checkInvariants()
					tc.checkNoLeaks()
				})
			}
		})
	}
}

// TestBatchedAbortPaths exercises batch refusal and client aborts on the
// shipped batch path.
func TestBatchedAbortPaths(t *testing.T) {
	for _, proto := range []string{"reliable", "causal"} {
		t.Run(proto, func(t *testing.T) {
			tc := newTestCluster(t, 3, proto, cfgFor(proto), 78)
			// Two head-on batched writers on the same key: at most one
			// commits.
			a := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "A"), kv("y", "A")})
			b := tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("y", "B"), kv("x", "B")})
			// A client abort before commit leaves no residue.
			tc.c.Schedule(time.Millisecond, func() {
				e := tc.engines[2]
				tx := e.Begin(false)
				if err := e.Write(tx, "z", message.Value("never")); err != nil {
					t.Errorf("write: %v", err)
				}
				e.Abort(tx)
			})
			tc.run(10 * time.Second)
			if !a.done || !b.done {
				t.Fatalf("unfinished: a=%v b=%v", a.done, b.done)
			}
			committed := 0
			if a.outcome == Committed {
				committed++
			}
			if b.outcome == Committed {
				committed++
			}
			if committed > 1 {
				t.Fatalf("both batched writers committed")
			}
			for i, e := range tc.engines {
				if _, ok := e.Store().Get("z"); ok {
					t.Fatalf("aborted write visible at site %d", i)
				}
			}
			tc.checkInvariants()
			tc.checkNoLeaks()
		})
	}
}
