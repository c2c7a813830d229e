package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenExport pins the JSONL export for a fixed seed: the simulator is
// deterministic, so the span stream — timestamps included — must be
// byte-identical run to run. A diff here means either the export format or
// the protocols' emission changed; regenerate with -update when intended.
func TestGoldenExport(t *testing.T) {
	for _, proto := range []string{"reliable", "causal", "atomic", "baseline", "quorum"} {
		t.Run(proto, func(t *testing.T) {
			o := simOpts{proto: proto, sites: 3, txns: 5, seed: 7,
				atomicMode: "sequencer", traceCap: 1 << 12}
			tracers, _, err := simulate(o)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := exportJSONL(&buf, o, tracers); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "export_"+proto+".golden.jsonl")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("export differs from %s (%d vs %d bytes); run with -update if the change is intended",
					golden, buf.Len(), len(want))
			}
			// The golden stream must itself parse and carry its meta.
			dumps, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(dumps) != o.sites {
				t.Fatalf("got %d site dumps, want %d", len(dumps), o.sites)
			}
			for _, d := range dumps {
				if d.Meta.Proto != proto || d.Meta.Seed != 7 {
					t.Fatalf("meta %+v", d.Meta)
				}
				if len(d.Spans) == 0 {
					t.Fatal("site dump has no spans")
				}
			}
		})
	}
}

// TestRenderersCoverStream keeps the two renderers in step with the span
// stream: every span renders in text mode, and the Mermaid diagram emits a
// bounded, non-empty message list.
func TestRenderersCoverStream(t *testing.T) {
	o := simOpts{proto: "atomic", sites: 3, txns: 4, seed: 1,
		atomicMode: "isis", traceCap: 1 << 12}
	tracers, _, err := simulate(o)
	if err != nil {
		t.Fatal(err)
	}
	spans := gather(tracers)
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	var text bytes.Buffer
	renderText(&text, spans, tracers)
	if got := bytes.Count(text.Bytes(), []byte("\n")); got != len(spans) {
		t.Fatalf("text renderer emitted %d lines for %d spans", got, len(spans))
	}
	var mm bytes.Buffer
	renderMermaid(&mm, o.sites, spans, 10)
	out := mm.String()
	for _, want := range []string{"sequenceDiagram", "participant s0", "participant s2", "truncated at 10"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("mermaid output missing %q:\n%s", want, out)
		}
	}
}
