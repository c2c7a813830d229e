package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/message"
)

// TestSoakLargeCluster pushes each protocol through a long, contended,
// mixed workload on a 9-site cluster and re-checks every global invariant:
// one-copy serializability, replica consistency, convergence, zero leaks,
// and full completion. This is the heavyweight confidence run; -short
// skips it.
func TestSoakLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	const (
		nSites = 9
		nTxns  = 1200
		nKeys  = 24
	)
	for _, proto := range protoNames {
		t.Run(proto, func(t *testing.T) {
			cfg := cfgFor(proto)
			tc := newTestCluster(t, nSites, proto, cfg, 314)
			r := rand.New(rand.NewSource(2718))
			var results []*txResult
			for i := 0; i < nTxns; i++ {
				site := r.Intn(nSites)
				at := time.Duration(r.Intn(60_000)) * time.Millisecond
				ro := r.Float64() < 0.35
				var rd []message.Key
				for k := 0; k < 1+r.Intn(3); k++ {
					rd = append(rd, message.Key(fmt.Sprintf("k%d", r.Intn(nKeys))))
				}
				var wr []message.KV
				if !ro {
					for k := 0; k < 1+r.Intn(3); k++ {
						wr = append(wr, kv(fmt.Sprintf("k%d", r.Intn(nKeys)), fmt.Sprintf("s%d.%d", site, i)))
					}
				}
				results = append(results, tc.runTxn(at, site, ro, rd, wr))
			}
			// Periodic deadlock probes throughout the run.
			if proto != "baseline" {
				for s := 1; s < 60; s += 3 {
					s := s
					tc.c.Schedule(time.Duration(s)*time.Second, func() {
						for i, e := range tc.engines {
							var det interface{ DetectDeadlock() []message.TxnID }
							switch te := e.(type) {
							case *ReliableEngine:
								det = te.Locks()
							case *CausalEngine:
								det = te.Locks()
							case *AtomicEngine:
								det = te.Locks()
							default:
								continue
							}
							if c := det.DetectDeadlock(); c != nil {
								t.Errorf("site %d deadlock at %ds: %v", i, s, c)
							}
						}
					})
				}
			}
			tc.run(180 * time.Second)
			done, committed, aborted := 0, 0, 0
			for _, res := range results {
				if res.done {
					done++
					if res.outcome == Committed {
						committed++
					} else {
						aborted++
					}
				}
			}
			if done != nTxns {
				t.Fatalf("%d of %d unfinished", nTxns-done, nTxns)
			}
			t.Logf("%s soak: %d committed, %d aborted", proto, committed, aborted)
			if committed < nTxns/2 {
				t.Fatalf("only %d commits of %d", committed, nTxns)
			}
			tc.checkInvariants()
			tc.checkNoLeaks()
		})
	}
}

// TestSoakBatchedAndPiggyback repeats a reduced soak under the configurations
// TestSoakLargeCluster does not run: the paper's per-operation arms
// (Config.PerOpWrites) of R, C and A. TestSoakLargeCluster soaks the
// shipped paths: R's and C's one write batch per commit, and A's write set
// piggybacked on the ordered commit request.
func TestSoakBatchedAndPiggyback(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	cases := []struct {
		proto string
		cfg   func() Config
	}{
		{"reliable", func() Config { c := cfgFor("reliable"); c.PerOpWrites = true; return c }},
		{"causal", func() Config { c := cfgFor("causal"); c.PerOpWrites = true; return c }},
		{"atomic", func() Config { c := cfgFor("atomic"); c.PerOpWrites = true; return c }},
	}
	for _, tcase := range cases {
		t.Run(tcase.proto, func(t *testing.T) {
			tc := newTestCluster(t, 6, tcase.proto, tcase.cfg(), 315)
			r := rand.New(rand.NewSource(1618))
			var results []*txResult
			for i := 0; i < 500; i++ {
				site := r.Intn(6)
				at := time.Duration(r.Intn(25_000)) * time.Millisecond
				var wr []message.KV
				for k := 0; k < 1+r.Intn(4); k++ {
					wr = append(wr, kv(fmt.Sprintf("k%d", r.Intn(16)), fmt.Sprintf("v%d", i)))
				}
				results = append(results, tc.runTxn(at, site, false,
					keys(fmt.Sprintf("k%d", r.Intn(16))), wr))
			}
			tc.run(90 * time.Second)
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
