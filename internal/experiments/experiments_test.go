package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden.json")

// quickCfg keeps the experiment self-tests fast.
var quickCfg = Config{Quick: true}

// wallClockKeys are the metric-name suffixes measured in wall time (the
// Makefile's BENCH_WALLCLOCK): reported for orientation, never pinned.
var wallClockKeys = []string{"wall_txn_per_sec", "group_commit_speedup"}

// TestAllExperimentsHold runs the whole suite in quick mode: every
// experiment must complete and every built-in expectation must hold — this
// is the reproduction's continuous regression gate.
func TestAllExperimentsHold(t *testing.T) {
	reports, err := All(quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 16 {
		t.Fatalf("suite has %d experiments, want 16", len(reports))
	}
	for _, rep := range reports {
		if len(rep.Violations) > 0 {
			t.Errorf("%s: %v", rep.ID, rep.Violations)
		}
		if len(rep.Tables) == 0 {
			t.Errorf("%s produced no tables", rep.ID)
		}
		for _, tbl := range rep.Tables {
			if !strings.Contains(tbl.String(), "--") {
				t.Errorf("%s table missing header rule:\n%s", rep.ID, tbl)
			}
		}
		if len(rep.Metrics) == 0 {
			t.Errorf("%s exposed no metrics", rep.ID)
		}
	}
	checkGolden(t, reports)
}

// checkGolden pins the quick suite's virtual-time evidence: every headline
// metric and per-run record, minus the wall-clock keys, must match
// testdata/quick.golden.json byte for byte. The simulator is deterministic
// under fixed seeds, so a diff means simulated behaviour changed;
// regenerate with -update when that is intended and say why.
func checkGolden(t *testing.T, reports []*Report) {
	t.Helper()
	doc := struct {
		Metrics map[string]map[string]float64 `json:"metrics"`
		Runs    []RunSummary                  `json:"runs"`
	}{Metrics: make(map[string]map[string]float64)}
	for _, rep := range reports {
		m := make(map[string]float64, len(rep.Metrics))
	metrics:
		for k, v := range rep.Metrics {
			for _, w := range wallClockKeys {
				if strings.HasSuffix(k, w) {
					continue metrics
				}
			}
			m[k] = v
		}
		doc.Metrics[rep.ID] = m
		doc.Runs = append(doc.Runs, rep.Runs...)
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "quick.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quick-suite metrics differ from %s; run with -update if the change is intended and explain it", golden)
	}
}

// TestSeedReplication verifies a different seed offset still satisfies
// every expectation — the claims are robust, not seed-lucky.
func TestSeedReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{1000, 2000} {
		cfg := Config{Quick: true, Seed: seed}
		reports, err := All(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reports {
			if len(rep.Violations) > 0 {
				t.Errorf("seed %d %s: %v", seed, rep.ID, rep.Violations)
			}
		}
	}
}
