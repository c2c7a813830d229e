package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func smallSpec(sites int) workload.Spec {
	return workload.Spec{
		Sites:            sites,
		Count:            80,
		Window:           5 * time.Second,
		Keys:             16,
		ReadOnlyFraction: 0.25,
		ReadsPerTxn:      2,
		WritesPerTxn:     2,
		Seed:             1,
	}
}

func engineCfg(proto string) core.Config {
	cfg := core.Config{}
	if proto == ProtoCausal {
		cfg.CausalHeartbeat = 25 * time.Millisecond
	}
	return cfg
}

func TestRunAllProtocols(t *testing.T) {
	for _, proto := range Protocols {
		t.Run(proto, func(t *testing.T) {
			res, err := Run(Options{
				Protocol: proto,
				Seed:     2,
				Engine:   engineCfg(proto),
				Workload: smallSpec(3),
				Check:    true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.CheckErr != nil {
				t.Fatalf("serializability: %v", res.CheckErr)
			}
			if res.Unfinished != 0 {
				t.Fatalf("%d transactions unfinished", res.Unfinished)
			}
			if res.Committed == 0 || res.ReadOnlyCommitted == 0 {
				t.Fatalf("suspicious outcome counts: %+v", res)
			}
			if res.MsgsPerCommit <= 0 {
				t.Fatalf("messages per commit = %f", res.MsgsPerCommit)
			}
			if res.UpdateLatency.Count() != int64(res.Committed) {
				t.Fatalf("latency samples %d != committed %d", res.UpdateLatency.Count(), res.Committed)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	opts := Options{
		Protocol: ProtoAtomic,
		Seed:     3,
		Workload: smallSpec(4),
	}
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed != b.Committed || a.Aborted != b.Aborted || a.Net.Messages != b.Net.Messages || a.Net.Bytes != b.Net.Bytes {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

// TestAcknowledgementHierarchy checks the paper's analytical ordering on a
// write-only workload: protocol A sends fewer messages per committed
// transaction than protocol C, which sends fewer than protocol R (whose
// decentralized vote round is quadratic in the cluster size).
func TestAcknowledgementHierarchy(t *testing.T) {
	spec := workload.Spec{
		Sites:            5,
		Count:            100,
		Window:           10 * time.Second,
		Keys:             512, // negligible contention: measure the happy path
		ReadOnlyFraction: 0,
		ReadsPerTxn:      1,
		WritesPerTxn:     2,
		Seed:             4,
	}
	get := func(proto string) Result {
		res, err := Run(Options{Protocol: proto, Seed: 5, Engine: PaperConfig(proto), Workload: spec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Unfinished > 0 {
			t.Fatalf("%s: %d unfinished", proto, res.Unfinished)
		}
		return res
	}
	r := get(ProtoReliable)
	c := get(ProtoCausal)
	a := get(ProtoAtomic)
	b := get(ProtoBaseline)
	// Analytical per-commit unicast counts for w writes at n sites (no
	// conflicts):
	//   baseline: 2w(n-1) writes+acks, +3(n-1) centralized 2PC
	//   R:        2w(n-1) writes+acks, +(n-1) vote request, +n(n-1) votes
	//   C:        (w+1)(n-1) — writes and one decision, nothing else
	//   A:        (w+1)(n-1) + (n-1) sequencer ordering for the commit
	//             (the shipped path, writes in the commit request: 2(n-1))
	// The hierarchy the paper's analysis implies: C < A < baseline < R —
	// the decentralized vote round makes R quadratic in n.
	const n, w = 5, 2
	analytic := map[string]float64{
		ProtoBaseline: 2*w*(n-1) + 3*(n-1),
		ProtoReliable: 2*w*(n-1) + (n - 1) + n*(n-1),
		ProtoCausal:   (w + 1) * (n - 1),
		ProtoAtomic:   (w+1)*(n-1) + (n - 1),
	}
	for proto, res := range map[string]Result{
		ProtoBaseline: b, ProtoReliable: r, ProtoCausal: c, ProtoAtomic: a,
	} {
		want := analytic[proto]
		got := res.ProtocolMsgsPerCommit
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("%s: %.1f msgs/commit, analytic model says %.1f", proto, got, want)
		}
	}
	if !(c.ProtocolMsgsPerCommit < a.ProtocolMsgsPerCommit &&
		a.ProtocolMsgsPerCommit < b.ProtocolMsgsPerCommit &&
		b.ProtocolMsgsPerCommit < r.ProtocolMsgsPerCommit) {
		t.Fatalf("hierarchy violated: C=%.1f A=%.1f base=%.1f R=%.1f",
			c.ProtocolMsgsPerCommit, a.ProtocolMsgsPerCommit, b.ProtocolMsgsPerCommit, r.ProtocolMsgsPerCommit)
	}
	if c.BackgroundMsgsPerSec <= 0 {
		t.Fatal("causal run should report heartbeat background traffic")
	}
}

func TestUnknownProtocol(t *testing.T) {
	if _, err := Run(Options{Protocol: "nope", Workload: smallSpec(2)}); err == nil {
		t.Fatal("expected error for unknown protocol")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "proto", "msgs", "rate")
	tb.Add("atomic", 12.345, FormatPct(0.25))
	tb.Add("reliable", 99.9, FormatPct(0.031))
	out := tb.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "atomic") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestReplicateAggregates(t *testing.T) {
	rep, err := Replicate(Options{
		Protocol: ProtoAtomic,
		Seed:     10,
		Workload: smallSpec(3),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if rep.MsgsPerCommit.N != 3 || rep.MsgsPerCommit.Mean <= 0 {
		t.Fatalf("msgs stat %+v", rep.MsgsPerCommit)
	}
	// Different seeds should not produce wildly different protocol costs
	// on an uncontended metric: stddev well under the mean.
	if rep.MsgsPerCommit.Stddev > rep.MsgsPerCommit.Mean/2 {
		t.Fatalf("suspicious variance: %v", rep.MsgsPerCommit)
	}
	if s := (Stat{Mean: 1.5, N: 1}).String(); s != "1.50" {
		t.Fatalf("single-run stat string %q", s)
	}
	if s := rep.MsgsPerCommit.String(); s == "" {
		t.Fatal("empty stat string")
	}
}

func TestFaultsSkipCrashedHomes(t *testing.T) {
	spec := smallSpec(4)
	spec.Window = 8 * time.Second
	ecfg := core.Config{FailureInterval: 30 * time.Millisecond, FailureTimeout: 150 * time.Millisecond}
	res, err := Run(Options{
		Protocol: ProtoAtomic,
		Seed:     6,
		Engine:   ecfg,
		Workload: spec,
		Faults:   []Fault{{At: 2 * time.Second, Crash: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Fatal("expected transactions skipped at the crashed home site")
	}
	if res.Unfinished > 2 {
		t.Fatalf("%d unfinished despite view change", res.Unfinished)
	}
	post := 0
	for _, at := range res.CommitTimes {
		if at > 2*time.Second {
			post++
		}
	}
	if post == 0 {
		t.Fatal("no commits after the fault")
	}
}

func TestQuorumThroughHarness(t *testing.T) {
	res, err := Run(Options{
		Protocol: ProtoQuorum,
		Seed:     8,
		Workload: smallSpec(5),
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckErr != nil {
		t.Fatalf("quorum serializability: %v", res.CheckErr)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished", res.Unfinished)
	}
	// Quorum reads cost real time; read-only latency must be nonzero
	// (unlike the broadcast protocols' local reads).
	if res.ReadOnlyLatency.Mean() == 0 {
		t.Fatal("quorum read-only latency should be nonzero")
	}
}
