package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/message"
)

// The conformance scenarios pin down each protocol's *semantic*
// differences on identical schedules: which conflicts abort, who wins,
// and what every protocol must agree on regardless. Each scenario runs on
// every protocol with per-protocol expectations.

// outcomeSet abbreviates the per-protocol expectation for one transaction:
// "C" committed, "A" aborted, "?" either (timing-dependent).
type scenarioExpect map[string][]string

type scenario struct {
	name string
	// run schedules transactions and returns their results in order.
	run func(tc *testCluster) []*txResult
	// expect maps protocol -> per-transaction outcome codes.
	expect scenarioExpect
}

var conformanceScenarios = []scenario{
	{
		name: "lone-writer",
		run: func(tc *testCluster) []*txResult {
			return []*txResult{
				tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "v")}),
			}
		},
		expect: scenarioExpect{
			"reliable": {"C"}, "causal": {"C"}, "atomic": {"C"}, "baseline": {"C"}, "quorum": {"C"},
		},
	},
	{
		name: "head-on-write-race",
		run: func(tc *testCluster) []*txResult {
			return []*txResult{
				tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "A")}),
				tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("x", "B")}),
			}
		},
		expect: scenarioExpect{
			// Never-wait negative acks can kill both; certification commits
			// exactly one; blocking/quorum serialize both.
			"reliable": {"?", "?"}, "causal": {"?", "?"}, "atomic": {"?", "?"},
			"baseline": {"C", "?"}, "quorum": {"C", "?"},
		},
	},
	{
		name: "serial-writers-no-conflict",
		run: func(tc *testCluster) []*txResult {
			return []*txResult{
				tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "1")}),
				tc.runTxn(2*time.Second, 1, false, keys("x"), []message.KV{kv("x", "2")}),
				tc.runTxn(4*time.Second, 2, false, keys("x"), []message.KV{kv("x", "3")}),
			}
		},
		expect: scenarioExpect{
			"reliable": {"C", "C", "C"}, "causal": {"C", "C", "C"}, "atomic": {"C", "C", "C"},
			"baseline": {"C", "C", "C"}, "quorum": {"C", "C", "C"},
		},
	},
	{
		name: "stale-read-modify-write",
		run: func(tc *testCluster) []*txResult {
			// T1 reads x early but commits late; T2 writes x in between.
			var t1 *txResult
			t1 = &txResult{vals: map[message.Key]message.Value{}}
			tc.c.Schedule(time.Millisecond, func() {
				e := tc.engines[0]
				tx := e.Begin(false)
				e.Read(tx, "x", func(message.Value, error) {})
				tc.c.Schedule(2*time.Second, func() {
					if err := e.Write(tx, "x", message.Value("stale")); err != nil {
						t1.done = true
						t1.outcome = Aborted
						if o, r := tx.Outcome(); o != 0 {
							t1.outcome, t1.reason = o, r
						}
						return
					}
					e.Commit(tx, func(o Outcome, r AbortReason) {
						t1.done, t1.outcome, t1.reason = true, o, r
					})
				})
			})
			t2 := tc.runTxn(500*time.Millisecond, 1, false, nil, []message.KV{kv("x", "fresh")})
			return []*txResult{t1, t2}
		},
		expect: scenarioExpect{
			// Certification must abort the stale T1. The lock-based
			// protocols abort ONE of the pair (T1's held read lock NACKs
			// T2's write, or T2's installed lock kills T1's write) — and the
			// blocking families serialize or wound.
			"reliable": {"?", "?"}, "causal": {"?", "?"}, "atomic": {"A", "C"},
			"baseline": {"?", "?"}, "quorum": {"?", "?"},
		},
	},
	{
		name: "client-abort-leaves-nothing",
		run: func(tc *testCluster) []*txResult {
			res := &txResult{vals: map[message.Key]message.Value{}}
			tc.c.Schedule(time.Millisecond, func() {
				e := tc.engines[0]
				tx := e.Begin(false)
				if err := e.Write(tx, "ghost", message.Value("boo")); err == nil {
					e.Abort(tx)
				}
				o, r := tx.Outcome()
				res.done, res.outcome, res.reason = true, o, r
			})
			return []*txResult{res}
		},
		expect: scenarioExpect{
			"reliable": {"A"}, "causal": {"A"}, "atomic": {"A"}, "baseline": {"A"}, "quorum": {"A"},
		},
	},
}

// conformanceArm is one engine configuration a scenario runs on.
type conformanceArm struct {
	name, proto string
	perOp       bool
}

// conformanceArms runs every protocol at its zero-value settings, plus
// protocols R and C on the paper's per-operation write dissemination, whose
// writes reach the other sites before commit.
func conformanceArms() []conformanceArm {
	var arms []conformanceArm
	for _, proto := range append(append([]string(nil), protoNames...), "quorum") {
		arms = append(arms, conformanceArm{name: proto, proto: proto})
	}
	for _, proto := range []string{"reliable", "causal"} {
		arms = append(arms, conformanceArm{name: proto + "-perop", proto: proto, perOp: true})
	}
	return arms
}

func TestProtocolConformance(t *testing.T) {
	for _, sc := range conformanceScenarios {
		for _, arm := range conformanceArms() {
			proto := arm.proto
			t.Run(sc.name+"/"+arm.name, func(t *testing.T) {
				cfg := cfgFor(proto)
				cfg.PerOpWrites = arm.perOp
				tc := newTestCluster(t, 3, proto, cfg, 87)
				results := sc.run(tc)
				tc.run(20 * time.Second)
				want := sc.expect[proto]
				if len(want) != len(results) {
					t.Fatalf("scenario wiring: %d expectations for %d txns", len(want), len(results))
				}
				for i, res := range results {
					if !res.done {
						t.Fatalf("txn %d unfinished", i)
					}
					switch want[i] {
					case "C":
						if res.outcome != Committed {
							t.Errorf("txn %d: got %v (%v), want committed", i, res.outcome, res.reason)
						}
					case "A":
						if res.outcome != Aborted {
							t.Errorf("txn %d: got %v, want aborted", i, res.outcome)
						}
					case "?":
						// Either outcome is legal; the oracle below decides
						// whether the combination was consistent.
					default:
						t.Fatalf("bad expectation %q", want[i])
					}
				}
				// Ghost-write check for the abort scenario. On a per-op arm
				// the write and then the abort were disseminated, so every
				// site must also have released what it staged.
				if sc.name == "client-abort-leaves-nothing" {
					for s, e := range tc.engines {
						if _, ok := e.Store().Get("ghost"); ok {
							t.Errorf("aborted write visible at site %d", s)
						}
					}
					if arm.perOp {
						st := tc.c.Stats()
						if st.ByPayload[message.KindWriteReq] == 0 || st.ByPayload[message.KindDecision] == 0 {
							t.Errorf("per-op abort sent %d writes and %d decisions, want both disseminated",
								st.ByPayload[message.KindWriteReq], st.ByPayload[message.KindDecision])
						}
						tc.checkNoLeaks()
					}
				}
				if err := tc.rec.Check(); err != nil {
					t.Fatalf("serializability: %v", err)
				}
			})
		}
	}
}

// TestConformanceValueAgreement re-runs the racing scenario many times
// under different seeds: whatever the winner, every site must agree with
// the winner's value under the broadcast protocols, and a quorum read must
// return it under the quorum protocol.
func TestConformanceValueAgreement(t *testing.T) {
	protos := append(append([]string(nil), protoNames...), "quorum")
	for _, proto := range protos {
		t.Run(proto, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				tc := newTestCluster(t, 3, proto, cfgFor(proto), 2000+seed)
				a := tc.runTxn(time.Millisecond, 0, false, nil, []message.KV{kv("x", "A")})
				b := tc.runTxn(time.Millisecond, 1, false, nil, []message.KV{kv("x", "B")})
				rd := tc.runTxn(5*time.Second, 2, true, keys("x"), nil)
				tc.run(20 * time.Second)
				if !a.done || !b.done || !rd.done {
					t.Fatalf("seed %d: unfinished", seed)
				}
				var want string
				switch {
				case a.outcome == Committed && b.outcome == Committed:
					// Both committed (serialized): the reader must see the
					// later one per the version order — just require it saw
					// one of them.
					got := string(rd.vals["x"])
					if got != "A" && got != "B" {
						t.Fatalf("seed %d: reader saw %q", seed, got)
					}
				case a.outcome == Committed:
					want = "A"
				case b.outcome == Committed:
					want = "B"
				default:
					want = "" // both aborted: key absent
				}
				if want != "" && string(rd.vals["x"]) != want {
					t.Fatalf("seed %d: reader saw %q, want %q", seed, rd.vals["x"], want)
				}
				if err := tc.rec.Check(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				_ = fmt.Sprintf
			}
		})
	}
}
