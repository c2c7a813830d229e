package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/message"
	"repro/internal/workload"
)

// TestSeededInputs pins that the seed alone decides the inputs: one seed
// gives the same transaction list twice, two seeds give different lists.
func TestSeededInputs(t *testing.T) {
	for _, def := range workloads {
		a, err := generate(def, 7, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(def, 7, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(def, 8, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.open, b.open) || !reflect.DeepEqual(a.sat, b.sat) {
			t.Errorf("%s: seed 7 generated two different transaction lists", def.name)
		}
		if reflect.DeepEqual(a.open, c.open) || reflect.DeepEqual(a.sat, c.sat) {
			t.Errorf("%s: seeds 7 and 8 generated the same transactions", def.name)
		}
		if len(a.open) != def.rate || len(a.sat) == 0 {
			t.Errorf("%s: %d open and %d closed-loop transactions, want %d and some", def.name, len(a.open), len(a.sat), def.rate)
		}
		for _, txn := range a.sat {
			if txn.ReadOnly {
				t.Fatalf("%s: read-only transaction in the closed loop's list", def.name)
			}
		}
	}
}

// recordingEngine notes every client call it receives; the rest of
// core.Engine is never reached by submit.
type recordingEngine struct {
	core.Engine
	txns []workload.Txn
	cur  *workload.Txn
}

func (e *recordingEngine) Begin(readOnly bool) *core.Tx {
	e.txns = append(e.txns, workload.Txn{ReadOnly: readOnly})
	e.cur = &e.txns[len(e.txns)-1]
	return &core.Tx{ReadOnly: readOnly}
}

func (e *recordingEngine) Read(_ *core.Tx, k message.Key, cb func(message.Value, error)) {
	e.cur.Reads = append(e.cur.Reads, k)
	cb(nil, nil)
}

func (e *recordingEngine) Write(_ *core.Tx, k message.Key, v message.Value) error {
	e.cur.Writes = append(e.cur.Writes, message.KV{Key: k, Value: v})
	return nil
}

func (e *recordingEngine) Commit(_ *core.Tx, cb func(core.Outcome, core.AbortReason)) {
	cb(core.Committed, core.ReasonNone)
}

// TestSubmitPassesOnlyGenerated pins that an engine receives nothing but
// the generated transaction: the same reads, the same writes, the same
// read-only flag, in order, and one commit.
func TestSubmitPassesOnlyGenerated(t *testing.T) {
	in, err := generate(findWorkload("sharded-cross"), 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	e := &recordingEngine{}
	commits := 0
	for i := range in.open {
		submit(e, &in.open[i], func(_ *core.Tx, o core.Outcome, _ core.AbortReason, err error) {
			if err != nil || o != core.Committed {
				t.Fatalf("txn %d: outcome %v, error %v", i, o, err)
			}
			commits++
		})
	}
	if commits != len(in.open) || len(e.txns) != len(in.open) {
		t.Fatalf("%d commits and %d begins for %d transactions", commits, len(e.txns), len(in.open))
	}
	for i, got := range e.txns {
		want := in.open[i]
		if got.ReadOnly != want.ReadOnly || !reflect.DeepEqual(got.Reads, want.Reads) || !reflect.DeepEqual(got.Writes, want.Writes) {
			t.Fatalf("txn %d: engine saw %+v, generated %+v", i, got, want)
		}
	}
}

// manifest renders BENCHMARK.json's metric lists from the declarations
// above; the package's test compares the committed file against it.
func manifest(defs []metricDef, bounded bool) []map[string]any {
	out := make([]map[string]any, 0, len(defs))
	for _, d := range defs {
		m := map[string]any{"name": d.name, "unit": d.unit, "better": d.better}
		if bounded {
			m["bound"] = d.bound
		}
		out = append(out, m)
	}
	return out
}

// TestManifest keeps BENCHMARK.json and the program's declarations equal:
// the one command, every workload, every metric with unit, direction and
// bound, and the default run length.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []map[string]any `json:"workloads"`
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i]["name"] != w.name || file.Workloads[i]["why"] == "" {
			t.Errorf("workload %d: file has %v, program %s", i, file.Workloads[i], w.name)
		}
	}
	// Through JSON once, so numbers compare as the decoder produced them.
	for _, cmp := range []struct {
		what string
		got  []map[string]any
		want []map[string]any
	}{
		{"end_to_end", file.EndToEnd, manifest(endToEnd, true)},
		{"per_layer", file.PerLayer, manifest(perLayer, false)},
	} {
		b, err := json.Marshal(cmp.want)
		if err != nil {
			t.Fatal(err)
		}
		var want []map[string]any
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cmp.got, want) {
			t.Errorf("%s differs from the program's declarations:\nfile:    %v\nprogram: %v", cmp.what, cmp.got, want)
		}
	}
}

// TestSmoke runs the whole harness once, short: set-up, open and saturation
// phases, the traced slice with its probes, the micro-runs, and every
// correctness check, on a small atomic-durable cluster.
func TestSmoke(t *testing.T) {
	def := *findWorkload("atomic-durable")
	def.keys, def.rate, def.window = 4096, 1000, 32
	p := plan{
		setups: 1, warm: 200 * time.Millisecond, open: time.Second, sat: time.Second, ramp: 100 * time.Millisecond,
		tracedWarm: 200 * time.Millisecond, tracedSpan: time.Second, tracedSat: time.Second, solo: 200 * time.Millisecond, micro: 2 * time.Millisecond,
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		var res *runResult
		var err error
		if traced {
			res, err = runTraced(&def, 1, p, dir, dir)
		} else {
			res, err = runUntraced(&def, 1, p, dir)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := checkComplete(res); err != nil {
			t.Error(err)
		}
		for _, v := range res.violations {
			t.Errorf("traced=%v: %s", traced, v)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("traced=%v: %d of %d transactions failed", traced, res.failed, res.attempted)
		}
	}
	if m, _ := os.Stat(dir + "/atomic-durable.trace.jsonl"); m == nil || m.Size() == 0 {
		t.Error("no trace file written")
	}
}
